package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary serve as the child process the parent
// starts for each cycle, as the benchmark binary does.
func TestMain(m *testing.M) {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req))
	}
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json this package must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesMetricTables(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range s.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Bound != want.bound || m.Better != "lower" {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, want)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, want)
		}
	}
}

// TestSmoke runs every workload at 300 operations through the child-process
// path — two untraced cycles, one traced and one profiled — and checks the
// correctness gate, every metric BENCHMARK.json names, and the spans.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	dir := t.TempDir()
	cfg := config{seed: 42, minCycles: 2, traced: 1, ops: 300, traceDir: dir}
	results, err := runBench(context.Background(), cfg, workloads)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Failed != 0 || r.Attempted != 4 {
			t.Errorf("%s: %d of %d cycles failed: %v", r.Name, r.Failed, r.Attempted, r.Failures)
		}
		for _, m := range s.EndToEnd {
			checkStat(t, r.Name, m.Name, m.Unit, r.EndToEnd)
		}
		for _, m := range s.PerLayer {
			checkStat(t, r.Name, m.Name, m.Unit, r.PerLayer)
		}
		checkSpans(t, filepath.Join(dir, r.Name+".spans.json"))
		if fi, err := os.Stat(filepath.Join(dir, r.Name+".cpu.pprof")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no CPU profile: %v", r.Name, err)
		}
	}

	ledger := filepath.Join(dir, "ledger.json")
	if err := writeLedger(ledger, cfg, results); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if worse, err := compare(ledger, ledger, &out); err != nil || worse {
		t.Errorf("a ledger compared with itself: worse=%v err=%v\n%s", worse, err, out.String())
	}
}

func checkStat(t *testing.T, workload, name, unit string, stats map[string]stat) {
	t.Helper()
	st, ok := stats[name]
	switch {
	case !ok:
		t.Errorf("%s: no %s", workload, name)
	case st.Unit != unit:
		t.Errorf("%s: %s in %q, BENCHMARK.json says %q", workload, name, st.Unit, unit)
	case st.N == 0 || math.IsNaN(st.Median) || math.IsInf(st.Median, 0):
		t.Errorf("%s: %s = %v over %d samples", workload, name, st.Median, st.N)
	}
}

// checkSpans requires every span to contain its children: no child is
// longer than its parent and no self time is negative.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []*span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	byID := map[[2]int]*span{}
	for _, s := range spans {
		byID[[2]int{s.Cycle, s.ID}] = s
	}
	for _, s := range spans {
		if self := selfNS(spans, s); self < 0 {
			t.Errorf("%s: span %s has self time %d ns", path, s.Name, self)
		}
		if p := byID[[2]int{s.Cycle, s.Parent}]; s.Parent != 0 && (p == nil || s.DurNS > p.DurNS) {
			t.Errorf("%s: span %s (%d ns) outlasts its parent %+v", path, s.Name, s.DurNS, p)
		}
	}
}

// TestGateRejects checks that each condition of the correctness gate fails
// a cycle.
func TestGateRejects(t *testing.T) {
	w := workloads[0]
	good := childResult{SHA256: "a", Bugs: w.bugs, Reports: w.reports[42]}
	if err := w.verify(&good, "a", 42, w.ops); err != nil {
		t.Fatalf("good cycle rejected: %v", err)
	}
	for name, bad := range map[string]childResult{
		"document differs": {SHA256: "b", Bugs: w.bugs, Reports: w.reports[42]},
		"bug missed":       {SHA256: "a", Bugs: w.bugs[1:], Reports: w.reports[42]},
		"count differs":    {SHA256: "a", Bugs: w.bugs, Reports: w.reports[42] + 1},
	} {
		if err := w.verify(&bad, "a", 42, w.ops); err == nil {
			t.Errorf("%s: cycle accepted", name)
		}
	}
}
