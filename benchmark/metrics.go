package main

import "slices"

// metric is one reported number. BENCHMARK.json at the repository root
// lists the same names, units and bounds; the smoke test keeps them equal.
type metric struct {
	name, unit string
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression. Every
	// end-to-end metric is lower-is-better.
	bound float64
}

// endToEnd are measured on untraced cycles only.
var endToEnd = []metric{
	{"cycle_s", "s", 0.25},        // wall time of one cycle
	{"cpu_s", "s", 0.25},          // user+sys CPU of the child during the cycle
	{"peak_rss_mib", "MiB", 0.10}, // VmHWM of the child at the end of the cycle
	{"setup_s", "s", 0.25},        // parent starting the child → child starting its cycle
}

// perLayer are measured on traced cycles; README.md defines each one and
// names the end-to-end metric it should move.
var perLayer = []metric{
	{"ycsb.generate_s", "s", 0},
	{"ycsb.ops", "count", 0},
	{"pmrt.run_s", "s", 0},
	{"pmrt.run_self_s", "s", 0},
	{"pmrt.events", "count", 0},
	{"pmrt.ns_per_event", "ns", 0},
	{"sched.steps", "count", 0},
	{"sites.frames", "count", 0},
	{"pmem.stores", "count", 0},
	{"pmem.flushes", "count", 0},
	{"pmem.fences", "count", 0},
	{"trace.encode_s", "s", 0},
	{"trace.decode_s", "s", 0},
	{"trace.capture_s", "s", 0},
	{"trace.bytes", "B", 0},
	{"trace.bytes_per_event", "B", 0},
	{"hawkset.replay_s", "s", 0},
	{"hawkset.dedup_ratio", "ratio", 0},
	{"hawkset.analyze_s", "s", 0},
	{"hawkset.analyze_shard_max_s", "s", 0},
	{"hawkset.pairs_checked", "count", 0},
	{"hawkset.pairs_race_ratio", "ratio", 0},
	{"hawkset.store_records", "count", 0},
	{"hawkset.load_records", "count", 0},
	{"hawkset.open_stores_hwm", "count", 0},
	{"hawkset.reports", "count", 0},
	{"report.render_s", "s", 0},
	{"report.bytes", "B", 0},
	{"go.alloc_mib", "MiB", 0},
	{"go.gc_cycles", "count", 0},
	{"go.gc_cpu_s", "s", 0},
	{"bench.trace_overhead_ratio", "ratio", 0},
}

// stat summarizes one metric's samples, one per cycle.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	P25    float64   `json:"p25"`
	P75    float64   `json:"p75"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(defs []metric, samples map[string][]float64) map[string]stat {
	out := make(map[string]stat, len(defs))
	for _, m := range defs {
		v := samples[m.name]
		s := stat{Unit: m.unit, N: len(v), Values: v}
		if len(v) > 0 {
			s.P25, s.Median, s.P75 = quartiles(slices.Sorted(slices.Values(v)))
		}
		out[m.name] = s
	}
	return out
}

// quartiles returns the quartiles of sorted values by the method of
// Python's statistics.quantiles(v, n=4), so they match tools that use it.
func quartiles(v []float64) (q1, q2, q3 float64) {
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the distance between the quartiles as a share of the median.
func (s stat) spread() float64 {
	return ratio(s.P75-s.P25, s.Median)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
