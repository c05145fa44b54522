package pmem_test

import (
	"fmt"
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/pmem"
	"hawkset/internal/pmrt"

	_ "hawkset/internal/apps/all"
)

// recordJournal runs an app's workload with the device-op journal on and
// returns the runtime.
func recordJournal(t *testing.T, e *apps.Entry, ops int, seed int64, fixed bool) *pmrt.Runtime {
	t.Helper()
	rt := pmrt.New(pmrt.Config{Seed: seed, PoolSize: e.PoolSize, RecordOps: true, NoTrace: true})
	if err := apps.RunOn(rt, e.Factory(rt, fixed), e.Workload(ops, seed)); err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	return rt
}

// TestAppJournalsVsDense replays every app's recorded journal (2,000
// operations, seeds 42 and 7, buggy and fixed) through a Replayer and
// through the dense reference device, and requires the same commit
// reports, dirty lines and bytes op for op (pmem.ReplayVsDense).
func TestAppJournalsVsDense(t *testing.T) {
	for _, e := range apps.All() {
		for _, seed := range []int64{42, 7} {
			for _, fixed := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/seed=%d/fixed=%v", e.Name, seed, fixed), func(t *testing.T) {
					rt := recordJournal(t, e, 2000, seed, fixed)
					pmem.ReplayVsDense(t, rt.Pool.Size(), rt.Ops)
				})
			}
		}
	}
}

// TestRunHoldsFewPages pins the page-sparse layout on a real run: Fast-Fair
// at 1,000 operations writes 11 of its pool's 8,192 pages, so each view
// may hold at most 32. A dense device, or pages allocated by reads, would
// hold them all.
func TestRunHoldsFewPages(t *testing.T) {
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		t.Fatal(err)
	}
	rt := recordJournal(t, e, 1000, 42, false)
	vol, per := pmem.PagesHeld(rt.Pool)
	t.Logf("pages held: volatile %d, persistent %d, of %d", vol, per, rt.Pool.Size()/4096)
	if vol > 32 || per > 32 {
		t.Errorf("Fast-Fair/1000 holds %d volatile and %d persistent pages, want at most 32 each", vol, per)
	}
}
