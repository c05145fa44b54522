package apps_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/obs"
	"hawkset/internal/ycsb"

	// Register every evaluated application.
	_ "hawkset/internal/apps/all"
)

// detectOps is the per-app workload size used by the detection tests: big
// enough to cover every seeded bug's trigger (tree growth, rehash, bucket
// fill, buffer expansion), small enough to keep the suite fast.
var detectOps = map[string]int{
	"Fast-Fair":      2000,
	"TurboHash":      20000,
	"P-CLHT":         3000,
	"P-Masstree":     2000,
	"P-ART":          1000,
	"MadFS":          1000,
	"MadFS-POSIX":    3000,
	"Memcached-pmem": 3000,
	"WIPE":           3000,
	"APEX":           2000,
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"Fast-Fair", "TurboHash", "P-CLHT", "P-Masstree", "P-ART", "MadFS", "MadFS-POSIX", "Memcached-pmem", "WIPE", "APEX"}
	var got []string
	for _, e := range apps.All() {
		got = append(got, e.Name)
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registry = %v, want %v (Table 1)", got, want)
	}
}

func TestRegistryBugNumbering(t *testing.T) {
	// The union of non-extension registered bugs must be exactly the paper's
	// Table 2: bugs #1..#20 with the right new/Durinn flags. Extension bugs
	// (the filesystem scenarios) number upward from #21.
	seen := map[int]apps.BugSpec{}
	ext := map[int]apps.BugSpec{}
	for _, e := range apps.All() {
		for _, b := range e.Bugs {
			if b.Extension {
				ext[b.ID] = b
				continue
			}
			seen[b.ID] = b
		}
	}
	if len(seen) != 20 {
		t.Fatalf("registered %d distinct Table 2 bugs, want 20", len(seen))
	}
	for _, id := range []int{21, 22} { // the filesystem extension bugs
		if _, ok := ext[id]; !ok {
			t.Errorf("extension bug #%d missing", id)
		}
	}
	for id := range ext {
		if id <= 20 {
			t.Errorf("extension bug #%d collides with the Table 2 numbering", id)
		}
	}
	for id := 1; id <= 20; id++ {
		if _, ok := seen[id]; !ok {
			t.Errorf("bug #%d missing", id)
		}
	}
	for _, id := range []int{2, 3, 16, 17, 18, 19, 20} { // the 7 new bugs
		if !seen[id].New {
			t.Errorf("bug #%d should be flagged new", id)
		}
	}
	for _, id := range []int{5, 6, 7, 8, 9} { // the Durinn-overlapping bugs
		if !seen[id].Durinn {
			t.Errorf("bug #%d should be flagged Durinn-overlapping", id)
		}
	}
}

// TestDetectAllSeededBugs is the reproduction's Table 2 backbone: for every
// application, one instrumented execution plus one analysis finds every
// seeded bug.
func TestDetectAllSeededBugs(t *testing.T) {
	for _, e := range apps.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			res, err := apps.Detect(e, detectOps[e.Name], 42, apps.RunConfig{Seed: 42}, hawkset.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			seen := map[int]bool{}
			for _, b := range e.Bugs {
				if !seen[b.ID] {
					want = append(want, b.ID)
					seen[b.ID] = true
				}
			}
			sort.Ints(want)
			got := apps.FoundBugs(e, res)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("FoundBugs = %v, want %v\nreports:\n%s", got, want, dump(res))
			}
		})
	}
}

// TestFixedVariantsClean: the repaired variants produce no malign reports
// and no bug matches.
func TestFixedVariantsClean(t *testing.T) {
	for _, e := range apps.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			res, err := apps.Detect(e, detectOps[e.Name], 42, apps.RunConfig{Seed: 42, Fixed: true}, hawkset.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if found := apps.FoundBugs(e, res); len(found) != 0 {
				t.Fatalf("fixed variant reports bugs %v:\n%s", found, dump(res))
			}
			if bd := apps.Breakdown(e, res); bd[apps.Malign] != 0 {
				t.Fatalf("fixed variant has %d malign reports:\n%s", bd[apps.Malign], dump(res))
			}
		})
	}
}

// TestIRHNeverPrunesMalign: every seeded bug found without the IRH is also
// found with it (§5.4: "the IRH removed a large fraction of False Positives
// without removing any Malign persistency-induced races").
func TestIRHNeverPrunesMalign(t *testing.T) {
	for _, e := range apps.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			noIRH := hawkset.DefaultConfig()
			noIRH.IRH = false
			off, err := apps.Detect(e, detectOps[e.Name], 42, apps.RunConfig{Seed: 42}, noIRH)
			if err != nil {
				t.Fatal(err)
			}
			on, err := apps.Detect(e, detectOps[e.Name], 42, apps.RunConfig{Seed: 42}, hawkset.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := apps.FoundBugs(e, on), apps.FoundBugs(e, off); !reflect.DeepEqual(got, want) {
				t.Fatalf("IRH changed found bugs: %v -> %v", want, got)
			}
			if len(on.Reports) > len(off.Reports) {
				t.Fatalf("IRH increased reports: %d -> %d", len(off.Reports), len(on.Reports))
			}
		})
	}
}

// TestMadFSOnlyBenign: MadFS's relaxed guarantees mean all reports are
// benign (§5.1).
func TestMadFSOnlyBenign(t *testing.T) {
	e, err := apps.Lookup("MadFS")
	if err != nil {
		t.Fatal(err)
	}
	res, err := apps.Detect(e, 1000, 42, apps.RunConfig{Seed: 42}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bd := apps.Breakdown(e, res)
	if bd[apps.Malign] != 0 {
		t.Fatalf("MadFS has malign reports:\n%s", dump(res))
	}
	if bd[apps.Benign] == 0 {
		t.Fatal("MadFS produced no benign reports — the relaxed-contract races went undetected")
	}
}

// TestMemcachedReuseDefeatsIRH: the slab allocator's memory reuse leaves
// false positives the IRH cannot prune (§5.4, Table 4's memcached row).
func TestMemcachedReuseDefeatsIRH(t *testing.T) {
	e, err := apps.Lookup("Memcached-pmem")
	if err != nil {
		t.Fatal(err)
	}
	res, err := apps.Detect(e, 5000, 42, apps.RunConfig{Seed: 42}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bd := apps.Breakdown(e, res)
	if bd[apps.FalsePositive] == 0 {
		t.Fatalf("expected surviving false positives from PM reuse; breakdown = %v\n%s", bd, dump(res))
	}
}

// TestDeterministicDetection: same seed ⇒ identical reports.
func TestDeterministicDetection(t *testing.T) {
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		t.Fatal(err)
	}
	a, err := apps.Detect(e, 1000, 9, apps.RunConfig{Seed: 9}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := apps.Detect(e, 1000, 9, apps.RunConfig{Seed: 9}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if dump(a) != dump(b) {
		t.Fatalf("same seed, different reports:\n%s\nvs\n%s", dump(a), dump(b))
	}
}

// TestEADRCollapsesWindows: with the persistent domain extended to the cache
// (eADR), stores persist on visibility and the missing-persist bugs vanish —
// the ablation anchoring the §2.1 discussion.
func TestEADRCollapsesWindows(t *testing.T) {
	e, err := apps.Lookup("P-Masstree")
	if err != nil {
		t.Fatal(err)
	}
	w := ycsb.Generate(e.Spec(1000), 42)
	rt, err := apps.Run(e, w, apps.RunConfig{Seed: 42, EADR: true})
	if err != nil {
		t.Fatal(err)
	}
	res := hawkset.Analyze(rt.Trace, hawkset.DefaultConfig())
	// The trace still shows no flushes taking effect, but the analysis works
	// on the trace alone: windows close only on overwrite. What must vanish
	// under eADR is the *observable* dirty state on the device.
	if rt.Pool.DirtyLines() != 0 {
		t.Fatalf("eADR device has %d dirty lines", rt.Pool.DirtyLines())
	}
	_ = res
}

func TestMaxOpsCap(t *testing.T) {
	e, err := apps.Lookup("P-ART")
	if err != nil {
		t.Fatal(err)
	}
	if e.MaxOps != 1000 {
		t.Fatalf("P-ART MaxOps = %d, want the paper's 1k cap", e.MaxOps)
	}
	if n := e.Workload(5000, 1).TotalOps(); n != e.MaxOps {
		t.Fatalf("P-ART Workload(5000) has %d main-phase ops, want the %d cap", n, e.MaxOps)
	}
}

func dump(res *hawkset.Result) string {
	s := ""
	for _, r := range res.Reports {
		s += fmt.Sprintf("%s [unpersisted=%v]\n", r.String(), r.Unpersisted)
	}
	return s
}

// TestCrashValidation closes the loop from race report to demonstrated
// corruption: applications with crash validators show structural violations
// in the buggy variant's persistent image and a clean image when fixed.
func TestCrashValidation(t *testing.T) {
	for _, name := range []string{"Fast-Fair", "TurboHash", "P-Masstree", "WIPE", "P-CLHT", "P-ART", "Memcached-pmem", "MadFS-POSIX"} {
		name := name
		t.Run(name, func(t *testing.T) {
			e, err := apps.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			buggy, err := apps.RunAndValidate(e, detectOps[name], 42, apps.RunConfig{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if len(buggy) == 0 {
				t.Fatal("buggy variant left a structurally consistent crash image — seeded bug has no post-crash effect")
			}
			fixed, err := apps.RunAndValidate(e, detectOps[name], 42, apps.RunConfig{Seed: 42, Fixed: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(fixed) != 0 {
				t.Fatalf("fixed variant's crash image is corrupt:\n%v", fixed)
			}
		})
	}
}

// TestRunAndValidateRecordsMetrics: the validation run reports its
// counters to RunConfig.Metrics, which pmcheck -metrics writes out.
func TestRunAndValidateRecordsMetrics(t *testing.T) {
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := apps.RunAndValidate(e, 300, 42, apps.RunConfig{Seed: 42, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counter("pmrt.events"); n == 0 {
		t.Fatal("pmrt.events = 0: the validation run dropped RunConfig.Metrics")
	}
}

// TestCrashValidationUnsupported: apps without validators report a clear
// error instead of a false verdict.
func TestCrashValidationUnsupported(t *testing.T) {
	e, err := apps.Lookup("APEX")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apps.RunAndValidate(e, 100, 1, apps.RunConfig{Seed: 1}); err == nil {
		t.Fatal("expected an unsupported error for APEX")
	}
}
