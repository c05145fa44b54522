package pmopt_test

import (
	"bytes"
	"strings"
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/crashinject"
	"hawkset/internal/pmem"
	"hawkset/internal/pmopt"
	"hawkset/internal/report"
	"hawkset/internal/sites"

	_ "hawkset/internal/apps/memcachedpm"
	_ "hawkset/internal/apps/part"
	_ "hawkset/internal/apps/pmasstree"
)

func findApp(t *testing.T, name string) *apps.Entry {
	t.Helper()
	for _, e := range apps.All() {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("app %s not registered", name)
	return nil
}

func analyze(t *testing.T, name string, opCount int, seed int64) *pmopt.Result {
	t.Helper()
	res, err := pmopt.AnalyzeApp(".", findApp(t, name), opCount, seed)
	if err != nil {
		t.Fatalf("AnalyzeApp(%s): %v", name, err)
	}
	for _, c := range res.Doc.Candidates {
		t.Logf("%s: [%s] %s %s %s (%d/%d) elim=%v refuted=%v %s",
			name, c.Tier, c.Op, c.Site, c.Kind, c.Redundant, c.Occurrences, c.Eliminable, c.Refuted, c.Detail)
	}
	return res
}

// topTier returns the candidates of the strongest confidence tier.
func topTier(res *pmopt.Result) []report.OptCandidate {
	var out []report.OptCandidate
	for _, c := range res.Doc.Candidates {
		if c.Tier == report.TierStaticDynamic {
			out = append(out, c)
		}
	}
	return out
}

// TestAnalyzePart pins the P-ART anchor: addChild over-persists the header
// line after already persisting it for the key array, so at least one of its
// persist sites must surface as a static+dynamic eliminable candidate.
func TestAnalyzePart(t *testing.T) {
	res := analyze(t, "P-ART", 400, 1)
	top := topTier(res)
	if len(top) == 0 {
		t.Fatal("part: no static+dynamic candidate")
	}
	found := false
	for _, c := range top {
		if strings.HasPrefix(c.Site, "internal/apps/part/part.go:") && c.Eliminable && c.StaticClaim {
			found = true
		}
	}
	if !found {
		t.Error("part: no eliminable static+dynamic candidate in part.go")
	}
	if len(res.Eliminable) == 0 {
		t.Error("part: Eliminable set empty despite top-tier candidates")
	}
	if res.Doc.Stats.Flushes == 0 || res.Doc.Stats.Fences == 0 {
		t.Errorf("part: journal stats empty: %+v", res.Doc.Stats)
	}
}

// TestAnalyzePMasstree pins the Masstree anchor: removeEntry persists the
// entry array (whose first line holds the count word) and then persists the
// count separately — the second persist's flush and fence are fully
// redundant on every path and every occurrence.
func TestAnalyzePMasstree(t *testing.T) {
	res := analyze(t, "P-Masstree", 400, 1)
	found := false
	for _, c := range topTier(res) {
		if strings.HasPrefix(c.Site, "internal/apps/pmasstree/pmasstree.go:") && c.Eliminable {
			found = true
		}
	}
	if !found {
		t.Error("pmasstree: no eliminable static+dynamic candidate")
	}
}

// TestRefutedTierExists checks the tier machinery on memcached: its CAS path
// persists the value line and then the (same-line) CAS counter; whether the
// second persist survives depends on item layout, so the analyzer must
// classify it as static+dynamic (confirmed) or static-only refuted — never
// silently drop the static claim.
func TestMemcachedClaims(t *testing.T) {
	res := analyze(t, "Memcached-pmem", 400, 1)
	if len(res.Doc.Candidates) == 0 {
		t.Fatal("memcached: no candidates at all")
	}
	var claimed int
	for _, c := range res.Doc.Candidates {
		if c.StaticClaim {
			claimed++
		}
	}
	if claimed == 0 {
		t.Error("memcached: no static claim on any site")
	}
}

// TestAnalyzeDeterminism: same inputs, byte-identical document.
func TestAnalyzeDeterminism(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		res, err := pmopt.AnalyzeApp(".", findApp(t, "P-ART"), 200, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Doc.WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Error("two identical analyses produced different JSON")
	}
}

// TestApplyGates runs the full elimination pipeline on the Masstree anchor
// and requires every safety gate to hold with a real device-op reduction.
func TestApplyGates(t *testing.T) {
	res := analyze(t, "P-Masstree", 300, 3)
	if len(res.Eliminable) == 0 {
		t.Fatal("no eliminable sites to apply")
	}
	ar, err := pmopt.Apply(res.Prep, 300, 3, res.Eliminable, crashinject.Config{Seed: 3, Budget: 24})
	if err != nil {
		t.Fatal(err)
	}
	if !ar.OK() {
		t.Fatalf("apply gates failed: %v", ar.Problems)
	}
	if ar.FlushReduction()+ar.FenceReduction() == 0 {
		t.Error("apply eliminated no device ops")
	}
	if !ar.RacesIdentical || !ar.JournalAligned {
		t.Errorf("gate flags: races=%v aligned=%v", ar.RacesIdentical, ar.JournalAligned)
	}
	if ar.SweepTested == 0 {
		t.Error("sweep tested no crash points")
	}
	if ar.SweepFailed != 0 {
		t.Errorf("sweep reported %d failing points", ar.SweepFailed)
	}
	t.Logf("apply: flushes %d→%d, fences %d→%d, elided %d, sweep %d tested",
		ar.BaselineFlushes, ar.OptFlushes, ar.BaselineFences, ar.OptFences, ar.ElidedOps, ar.SweepTested)
}

// TestApplyRejectsNonRedundantSite: eliding a site that does real work must
// trip gates 1, 2 and 4 each, not pass silently.
func TestApplyRejectsNonRedundantSite(t *testing.T) {
	res := analyze(t, "P-Masstree", 200, 5)
	// Victim: the busiest flush site that is NOT a candidate — it does real
	// persistence work on at least some occurrence, so eliding it must fail
	// a gate. Selected from the recorded journal itself (deterministically:
	// highest count, site key as tie-break).
	cand := make(map[string]bool)
	for _, c := range res.Doc.Candidates {
		cand[c.Site] = true
	}
	rt := res.Prep.Runtime
	counts := make(map[string]int)
	for _, op := range rt.Ops {
		if op.Kind != pmem.OpFlush {
			continue
		}
		key := rt.Trace.Sites.Lookup(sites.ID(op.Site)).Key()
		if key != "" && !cand[key] {
			counts[key]++
		}
	}
	var victim string
	for k, n := range counts {
		if victim == "" || n > counts[victim] || (n == counts[victim] && k < victim) {
			victim = k
		}
	}
	if victim == "" {
		t.Fatal("journal has no non-candidate flush site")
	}
	ar, err := pmopt.Apply(res.Prep, 200, 5, []string{victim}, crashinject.Config{Seed: 5, Budget: 16})
	if err != nil {
		t.Fatal(err)
	}
	if ar.OK() {
		t.Fatalf("eliding non-redundant site %s passed all gates", victim)
	}
	if ar.RacesIdentical {
		t.Error("gate 1 held: race report unchanged")
	}
	if ar.SweepFailed == 0 {
		t.Error("gate 2 held: no failing crash point")
	}
	if ar.JournalAligned {
		t.Error("gate 4 held: persistent images agree")
	}
	t.Logf("gate correctly rejected %s: %v", victim, ar.Problems)
}
