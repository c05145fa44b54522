package bench

import (
	"reflect"
	"runtime"
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
)

// TestParallelAnalysisMatchesSequentialOnApps runs the full pipeline over
// real application workloads and checks that the sharded stage ③ produces
// exactly the sequential result — same reports in the same order, same
// stats — for several GOMAXPROCS shard counts, including a count that does
// not divide the bucket space evenly. The in-package differential tests
// cover crafted corner traces; this one covers the report shapes real
// workloads produce.
func TestParallelAnalysisMatchesSequentialOnApps(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, name := range []string{"Fast-Fair", "Memcached-pmem"} {
		e, err := apps.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := apps.Run(e, e.Workload(4000, 42), apps.RunConfig{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}

		cfg := hawkset.DefaultConfig()
		runtime.GOMAXPROCS(1)
		want := hawkset.Analyze(rt.Trace, cfg)
		if len(want.Reports) == 0 {
			t.Fatalf("%s: sequential analysis found no reports; differential test is vacuous", name)
		}

		for _, n := range []int{2, 7, procs} {
			runtime.GOMAXPROCS(n)
			got := hawkset.Analyze(rt.Trace, cfg)
			if !reflect.DeepEqual(got.Reports, want.Reports) {
				t.Errorf("%s: reports with GOMAXPROCS=%d differ from sequential\n got: %v\nwant: %v",
					name, n, got.Reports, want.Reports)
			}
			if got.Stats != want.Stats {
				t.Errorf("%s: stats with GOMAXPROCS=%d differ from sequential\n got: %+v\nwant: %+v",
					name, n, got.Stats, want.Stats)
			}
		}
	}
}
