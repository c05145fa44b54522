package expmt

import (
	"math"
	"runtime"
	"strings"
	"testing"

	// Register all applications.
	_ "hawkset/internal/apps/all"
)

// TestTable2AllBugsFound is the headline claim C1: every Table 2 race is
// detected.
func TestTable2AllBugsFound(t *testing.T) {
	rows, err := Table2(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(rows))
	}
	for _, r := range rows {
		if !r.Found {
			t.Errorf("bug #%d (%s) not found", r.Bug, r.App)
		}
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "Fast-Fair") || !strings.Contains(out, "APEX") {
		t.Fatalf("formatting broken:\n%s", out)
	}
}

// TestTable3Small runs the comparison at reduced scale and checks the shape
// of Table 3: HawkSet finds bug #1 in far more workloads at far lower cost,
// and is the only tool to find bug #2.
func TestTable3Small(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison campaign is slow")
	}
	cfg := DefaultTable3Config()
	cfg.Seeds = 16
	res, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(tool string, bug int) Table3Row {
		for _, r := range res.Rows {
			if r.Tool == tool && r.Bug == bug {
				return r
			}
		}
		t.Fatalf("row %s/%d missing", tool, bug)
		return Table3Row{}
	}
	h1, p1 := get("HawkSet", 1), get("PMRace", 1)
	h2, p2 := get("HawkSet", 2), get("PMRace", 2)
	if h1.Racy <= p1.Racy {
		t.Errorf("HawkSet found bug #1 in %d seeds, PMRace in %d — expected HawkSet to dominate", h1.Racy, p1.Racy)
	}
	if h1.Racy == 0 {
		t.Fatal("HawkSet never found bug #1")
	}
	if h2.Racy == 0 {
		t.Error("HawkSet never found bug #2")
	}
	if p2.Racy > h2.Racy {
		t.Errorf("baseline found the rare bug more often than HawkSet (%d vs %d)", p2.Racy, h2.Racy)
	}
	if !math.IsInf(res.Speedup, 1) && res.Speedup < 2 {
		t.Errorf("speedup = %.2f, expected well above 1", res.Speedup)
	}
	t.Logf("\n%s", FormatTable3(res))
}

// TestFig6Shape: testing time and peak memory grow with workload size for
// every application.
func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	pts, err := Fig6([]int{200, 2000}, 42)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string][]Fig6Point{}
	for _, p := range pts {
		byApp[p.App] = append(byApp[p.App], p)
	}
	for app, ps := range byApp {
		if len(ps) < 2 {
			continue // P-ART is capped
		}
		if ps[1].Events <= ps[0].Events {
			t.Errorf("%s: events did not grow with workload (%d -> %d)", app, ps[0].Events, ps[1].Events)
		}
		if ps[1].TestingTime < ps[0].TestingTime/2 {
			t.Errorf("%s: testing time shrank with 10x workload (%v -> %v)", app, ps[0].TestingTime, ps[1].TestingTime)
		}
	}
	t.Logf("\n%s", FormatFig6(pts))
}

// TestPeakRSSResets: the mark covers only the measured call. A 64 MiB
// buffer touched in one call shows in that call's peak and, once freed,
// not in the next call's.
func TestPeakRSSResets(t *testing.T) {
	const size = 64 << 20
	big, ok := PeakRSS(func() {
		b := make([]byte, size)
		for i := 0; i < len(b); i += 4096 {
			b[i] = 1
		}
		runtime.KeepAlive(b)
	})
	if !ok {
		t.Skip("VmHWM cannot be reset or read here")
	}
	small, ok := PeakRSS(func() {})
	if !ok {
		t.Fatal("second PeakRSS could not measure")
	}
	if big < size || small > big-size/2 {
		t.Fatalf("peak with a %d MiB buffer %d B, after freeing it %d B", size>>20, big, small)
	}
}

// TestFormatFig6PeakNA: an unmeasured peak prints as n/a, never 0 bytes.
func TestFormatFig6PeakNA(t *testing.T) {
	out := FormatFig6([]Fig6Point{{App: "a", PeakRSS: 0}, {App: "b", PeakRSS: 3 << 20}})
	if !strings.Contains(out, "n/a") || !strings.Contains(out, "3.00MiB") || strings.Contains(out, " 0B ") {
		t.Fatalf("FormatFig6:\n%s", out)
	}
}

// TestTable4Shape: the IRH prunes reports for every application, never
// prunes a malign race, and leaves the memcached false positives (§5.4).
func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("classification sweep is slow")
	}
	rows, err := Table4(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10 (Table 1's nine apps + MadFS-POSIX)", len(rows))
	}
	prunedSomewhere := false
	for _, r := range rows {
		if r.PrunedMalign != 0 {
			t.Errorf("%s: IRH pruned %d malign races", r.App, r.PrunedMalign)
		}
		if r.AfterIRH > r.Reported {
			t.Errorf("%s: IRH increased reports (%d -> %d)", r.App, r.Reported, r.AfterIRH)
		}
		if r.AfterIRH < r.Reported {
			prunedSomewhere = true
		}
		if r.App == "Memcached-pmem" && r.FP == 0 {
			t.Error("memcached: expected surviving false positives from PM reuse")
		}
		if r.App == "MadFS" && r.MR != 0 {
			t.Error("MadFS: expected no malign races")
		}
	}
	if !prunedSomewhere {
		t.Error("IRH pruned nothing anywhere")
	}
	t.Logf("\n%s", FormatTable4(rows))
}
