package main

import (
	"fmt"
	"slices"

	_ "hawkset/internal/apps/fastfair"
	_ "hawkset/internal/apps/madfs"
	_ "hawkset/internal/apps/memcachedpm"
	_ "hawkset/internal/apps/pmasstree"
)

// mode is how a cycle drives the Fig. 6 pipeline.
type mode int

const (
	// detect: apps.Run → hawkset.Analyze → report, the Fig. 6a unit.
	detect mode = iota
	// reanalyze: decode a trace the parent captured once, feeding every
	// event into a hawkset.Stream → report. No instrumented execution.
	reanalyze
	// online: run with NoTrace and an EventSink that feeds a hawkset.Stream
	// → report. Execution and replay interleave and no trace is retained.
	online
	// capture: apps.Run → encode the trace as v2+flate to a file →
	// hawkset.Analyze → report, what `hawkset -trace-out f -trace-compress`
	// does.
	capture
)

// workload is one set of inputs the benchmark runs. The four stress
// different layers (README.md says which and why); bugs and reports are the
// hand-written half of the correctness gate.
type workload struct {
	name string
	app  string
	ops  int
	mode mode
	// bugs are the Table 2 bugs every cycle must report (verified on seeds
	// 42 and 7 and on seeds 1–16).
	bugs []int
	// reports are the committed report counts at ops, by seed.
	reports map[int64]int
}

var workloads = []*workload{
	{name: "detect-fastfair", app: "Fast-Fair", ops: 18000, mode: detect,
		bugs: []int{1, 2}, reports: map[int64]int{42: 35, 7: 35}},
	{name: "reanalyze-memcached", app: "Memcached-pmem", ops: 100000, mode: reanalyze,
		bugs: []int{10, 11, 12, 13, 14, 15}, reports: map[int64]int{42: 54, 7: 57}},
	{name: "stream-pmasstree", app: "P-Masstree", ops: 15000, mode: online,
		bugs: []int{5, 6, 7}, reports: map[int64]int{42: 42, 7: 42}},
	{name: "capture-madfs-posix", app: "MadFS-POSIX", ops: 108000, mode: capture,
		bugs: []int{21, 22}, reports: map[int64]int{42: 22, 7: 22}},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// verify is the correctness gate for one cycle: its report document must
// hash to want, it must report every listed Table 2 bug, and at the
// committed size and seeds it must report the committed number of races.
func (w *workload) verify(res *childResult, want string, seed int64, ops int) error {
	if res.SHA256 != want {
		return fmt.Errorf("report document sha256 %.12s, want %.12s", res.SHA256, want)
	}
	for _, id := range w.bugs {
		if !slices.Contains(res.Bugs, id) {
			return fmt.Errorf("missed Table 2 bug #%d (found %v)", id, res.Bugs)
		}
	}
	if n, ok := w.reports[seed]; ok && ops == w.ops && res.Reports != n {
		return fmt.Errorf("%d reports, committed count for seed %d is %d", res.Reports, seed, n)
	}
	return nil
}
