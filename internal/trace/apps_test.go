package trace_test

import (
	"testing"

	"hawkset/internal/apps"
	_ "hawkset/internal/apps/all"
	"hawkset/internal/trace"
)

// TestAppEventsPack: every event the apps emit packs into a record, so the
// recorded trace of a run keeps 16 bytes per event. A field width narrower
// than the values pmrt emits would move those events to the spill list,
// which still round-trips and would fail no other test.
func TestAppEventsPack(t *testing.T) {
	const ops = 2000
	for _, e := range apps.All() {
		for _, seed := range []int64{42, 7} {
			for _, fixed := range []bool{false, true} {
				for _, allocs := range []bool{false, true} {
					rt, err := apps.Run(e, e.Workload(ops, seed), apps.RunConfig{Seed: seed, Fixed: fixed, InstrumentAllocs: allocs})
					if err != nil {
						t.Fatalf("%s, seed %d, fixed %v, allocs %v: %v", e.Name, seed, fixed, allocs, err)
					}
					if n := trace.Spilled(rt.Trace); n != 0 {
						t.Errorf("%s, seed %d, fixed %v, allocs %v: %d of %d events spilled",
							e.Name, seed, fixed, allocs, n, rt.Trace.Len())
					}
				}
			}
		}
	}
}
