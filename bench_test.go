// Package bench holds the benchmark harness that regenerates the paper's
// evaluation (one testing.B benchmark per table and figure, §5) plus
// ablation benches for the design choices DESIGN.md calls out and
// micro-benchmarks of the analysis substrate.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The benchmarks report custom metrics alongside time: races/op (reports),
// events/op (trace size), and for Figure 6b peak-rss-B/op (the process's
// resident-set high-water mark, VmHWM). Paper-scale parameters are
// available through cmd/experiments; the benches use laptop-scale sizes
// with the same shape.
package bench

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/baseline/durinn"
	"hawkset/internal/baseline/eraser"
	"hawkset/internal/baseline/pmrace"
	"hawkset/internal/expmt"
	"hawkset/internal/hawkset"
	"hawkset/internal/lockset"
	"hawkset/internal/pmrt"
	"hawkset/internal/trace"
	"hawkset/internal/vclock"
	"hawkset/internal/ycsb"

	_ "hawkset/internal/apps/all"
)

// ---------------------------------------------------------------- Table 2

// BenchmarkTable2BugDetection measures the full detect cycle (instrumented
// execution + analysis) per application — the workflow behind Table 2.
func BenchmarkTable2BugDetection(b *testing.B) {
	for _, e := range apps.All() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			var reports int
			for i := 0; i < b.N; i++ {
				res, err := apps.Detect(e, 2000, 42, apps.RunConfig{Seed: 42}, hawkset.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				reports = len(res.Reports)
			}
			b.ReportMetric(float64(reports), "races/op")
		})
	}
}

// ---------------------------------------------------------------- Table 3

// BenchmarkTable3PerSeedCost measures each tool's per-seed-workload cost on
// Fast-Fair: the "Avg. Time per Execution" column of Table 3. The
// expected-time-to-race ratio follows from these costs and the per-seed
// detection rates (cmd/experiments -table3).
func BenchmarkTable3PerSeedCost(b *testing.B) {
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		b.Fatal(err)
	}
	seeds := ycsb.Seeds(8, 1000)

	b.Run("HawkSet", func(b *testing.B) {
		found := 0
		for i := 0; i < b.N; i++ {
			w := seeds[i%len(seeds)]
			rt, err := apps.Run(e, w, apps.RunConfig{Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			res := hawkset.Analyze(rt.Trace, hawkset.DefaultConfig())
			found += len(apps.FoundBugs(e, res))
		}
		b.ReportMetric(float64(found)/float64(b.N), "bugs/op")
	})
	b.Run("PMRace", func(b *testing.B) {
		found := 0
		for i := 0; i < b.N; i++ {
			w := seeds[i%len(seeds)]
			cfg := pmrace.DefaultConfig(int64(i))
			res, err := pmrace.Detect(e, w, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.MatchesBug(e.Bugs[0].StoreFunc, e.Bugs[0].LoadFunc) {
				found++
			}
		}
		b.ReportMetric(float64(found)/float64(b.N), "bugs/op")
	})
}

// ---------------------------------------------------------------- Figure 6

// BenchmarkFig6aTestingTime sweeps workload sizes: ns/op is Figure 6a's
// testing time; events/op shows the sublinear trace growth driving it.
func BenchmarkFig6aTestingTime(b *testing.B) {
	for _, e := range apps.All() {
		for _, ops := range []int{1000, 10000} {
			if e.MaxOps > 0 && ops > e.MaxOps {
				continue
			}
			e, ops := e, ops
			b.Run(benchName(e.Name, ops), func(b *testing.B) {
				var events int
				for i := 0; i < b.N; i++ {
					res, err := apps.Detect(e, ops, 42, apps.RunConfig{Seed: 42}, hawkset.DefaultConfig())
					if err != nil {
						b.Fatal(err)
					}
					events = res.Stats.Events
				}
				b.ReportMetric(float64(events), "events/op")
			})
		}
	}
}

// BenchmarkFig6bPeakMemory reports the resident-set high-water mark (VmHWM)
// of one detect cycle per application — Figure 6b's peak memory — as the
// highest over its iterations. Where /proc cannot be reset or read it logs
// n/a and reports no metric.
func BenchmarkFig6bPeakMemory(b *testing.B) {
	for _, e := range apps.All() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			var peak uint64
			measured := true
			for i := 0; i < b.N; i++ {
				var err error
				p, ok := expmt.PeakRSS(func() {
					_, err = apps.Detect(e, 10000, 42, apps.RunConfig{Seed: 42}, hawkset.DefaultConfig())
				})
				if err != nil {
					b.Fatal(err)
				}
				peak, measured = max(peak, p), measured && ok
			}
			if !measured {
				b.Log("peak RSS n/a: /proc/self/clear_refs or VmHWM unavailable")
				return
			}
			b.ReportMetric(float64(peak), "peak-rss-B/op")
		})
	}
}

// ---------------------------------------------------------------- Table 4

// BenchmarkTable4IRH measures the analysis with the Initialization Removal
// Heuristic on and off: races/op shows the pruning (Table 4's After-IRH vs
// Reported columns), ns/op the cost of the heuristic itself.
func BenchmarkTable4IRH(b *testing.B) {
	e, err := apps.Lookup("Memcached-pmem")
	if err != nil {
		b.Fatal(err)
	}
	w := ycsb.Generate(e.Spec(4000), 42)
	rt, err := apps.Run(e, w, apps.RunConfig{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	for _, irh := range []bool{true, false} {
		irh := irh
		name := "on"
		if !irh {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := hawkset.DefaultConfig()
			cfg.IRH = irh
			var reports int
			for i := 0; i < b.N; i++ {
				res := hawkset.Analyze(rt.Trace, cfg)
				reports = len(res.Reports)
			}
			b.ReportMetric(float64(reports), "races/op")
		})
	}
}

// -------------------------------------------------------------- Ablations

// BenchmarkAblations re-analyzes one Fast-Fair trace with each design
// feature disabled, quantifying what every §3 mechanism contributes
// (races/op moves; ns/op shows each feature's cost).
func BenchmarkAblations(b *testing.B) {
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		b.Fatal(err)
	}
	w := ycsb.Generate(e.Spec(4000), 42)
	rt, err := apps.Run(e, w, apps.RunConfig{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*hawkset.Config)
	}{
		{"full", func(c *hawkset.Config) {}},
		{"no-effective-lockset", func(c *hawkset.Config) { c.EffectiveLockset = false }},
		{"no-timestamps", func(c *hawkset.Config) { c.Timestamps = false }},
		{"no-hb-filter", func(c *hawkset.Config) { c.HBFilter = false }},
		{"no-irh", func(c *hawkset.Config) { c.IRH = false }},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cfg := hawkset.DefaultConfig()
			tc.mut(&cfg)
			var reports int
			for i := 0; i < b.N; i++ {
				res := hawkset.Analyze(rt.Trace, cfg)
				reports = len(res.Reports)
			}
			b.ReportMetric(float64(reports), "races/op")
		})
	}
}

// BenchmarkEraserBaseline runs the traditional (PM-oblivious) lockset
// analysis over the same trace, the §3.1.1 contrast.
func BenchmarkEraserBaseline(b *testing.B) {
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		b.Fatal(err)
	}
	w := ycsb.Generate(e.Spec(4000), 42)
	rt, err := apps.Run(e, w, apps.RunConfig{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	var reports int
	for i := 0; i < b.N; i++ {
		res := eraser.Analyze(rt.Trace)
		reports = len(res.Reports)
	}
	b.ReportMetric(float64(reports), "races/op")
}

// ------------------------------------------------------- Micro-benchmarks

// BenchmarkAnalysisThroughput measures trace events analyzed per second,
// the scalability driver of Figure 6a.
func BenchmarkAnalysisThroughput(b *testing.B) {
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		b.Fatal(err)
	}
	w := ycsb.Generate(e.Spec(10000), 42)
	rt, err := apps.Run(e, w, apps.RunConfig{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hawkset.Analyze(rt.Trace, hawkset.DefaultConfig())
	}
	b.ReportMetric(float64(rt.Trace.Len()), "events/op")
}

// BenchmarkParallelAnalysis sweeps the stage-③ shard count, which follows
// GOMAXPROCS, on 100k-op workloads. workers=1 is the sequential path; the
// sharded runs produce byte-identical reports (see parallel_test.go), so any
// speedup is free accuracy-wise.
func BenchmarkParallelAnalysis(b *testing.B) {
	for _, name := range []string{"Fast-Fair", "Memcached-pmem"} {
		e, err := apps.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		ops := 100000
		rt, err := apps.Run(e, e.Workload(ops, 42), apps.RunConfig{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(benchName(e.Name, ops)+"/workers="+strconv.Itoa(workers), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				var reports int
				for i := 0; i < b.N; i++ {
					res := hawkset.Analyze(rt.Trace, hawkset.DefaultConfig())
					reports = len(res.Reports)
				}
				b.ReportMetric(float64(reports), "races/op")
			})
		}
	}
}

// BenchmarkLocksetIntersect measures the hot inner loop of Algorithm 1.
func BenchmarkLocksetIntersect(b *testing.B) {
	a := lockset.Set{}.Add(1, 1).Add(3, 2).Add(7, 3).Add(9, 4)
	c := lockset.Set{}.Add(2, 1).Add(3, 9).Add(8, 2).Add(9, 1)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lockset.IntersectExact(a, c)
		}
	})
	b.Run("locks-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lockset.IntersectLocks(a, c)
		}
	})
	b.Run("disjoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lockset.DisjointLocks(a, c)
		}
	})
}

// BenchmarkVClockOps measures the happens-before primitives.
func BenchmarkVClockOps(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v1 := make(vclock.VC, 9)
	v2 := make(vclock.VC, 9)
	for i := range v1 {
		v1[i] = uint32(rng.Intn(100))
		v2[i] = uint32(rng.Intn(100))
	}
	b.Run("leq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vclock.Leq(v1, v2)
		}
	})
	b.Run("leq-id", func(b *testing.B) {
		tab := vclock.NewTable()
		a, c := tab.InternOwned(v1, 0), tab.Intern(v2)
		for i := 0; i < b.N; i++ {
			tab.LeqID(a, c)
		}
	})
	b.Run("intern", func(b *testing.B) {
		tab := vclock.NewTable()
		for i := 0; i < b.N; i++ {
			tab.Intern(v1)
		}
	})
}

// BenchmarkInstrumentation measures the per-operation cost of the
// instrumented runtime (the PIN-substitute overhead).
func BenchmarkInstrumentation(b *testing.B) {
	rt := pmrt.New(pmrt.Config{Seed: 1, PoolSize: 1 << 24})
	err := rt.Run(func(c *pmrt.Ctx) {
		a := c.Alloc(64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Store8(a, uint64(i))
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rt.Trace.Len()), "events")
}

// BenchmarkTraceCodec measures binary trace encode/decode throughput, plain
// and flate-compressed, on the same 100k-op workloads
// BenchmarkParallelAnalysis uses — the capture-once/analyze-many IO cost.
// bytes/op via -benchmem (the encoded size is reported as trace-B/op),
// decode MB/s via SetBytes.
func BenchmarkTraceCodec(b *testing.B) {
	versions := []struct {
		name string
		opts trace.Options
	}{
		{"v2", trace.Options{}},
		{"v2-flate", trace.Options{Compress: true}},
	}
	for _, name := range []string{"Fast-Fair", "Memcached-pmem"} {
		e, err := apps.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		ops := 100000
		rt, err := apps.Run(e, e.Workload(ops, 42), apps.RunConfig{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range versions {
			v := v
			var enc bytes.Buffer
			if err := trace.EncodeWith(&enc, rt.Trace, v.opts); err != nil {
				b.Fatal(err)
			}
			raw := enc.Bytes()
			b.Run("encode/"+benchName(e.Name, ops)+"/"+v.name, func(b *testing.B) {
				b.SetBytes(int64(len(raw)))
				for i := 0; i < b.N; i++ {
					var sink countWriter
					if err := trace.EncodeWith(&sink, rt.Trace, v.opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(raw)), "trace-B/op")
			})
			b.Run("decode/"+benchName(e.Name, ops)+"/"+v.name, func(b *testing.B) {
				b.SetBytes(int64(len(raw)))
				for i := 0; i < b.N; i++ {
					if _, err := trace.Decode(bytes.NewReader(raw)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rt.Trace.Len()), "events/op")
			})
		}
	}
}

func benchName(app string, ops int) string {
	return app + "/" + strconv.Itoa(ops)
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// BenchmarkBacktraceOverhead quantifies the cost of deep backtraces vs the
// default single-frame capture — the reproduction's version of §4's
// PIN_Backtrace "up to 90% overhead" measurement.
func BenchmarkBacktraceOverhead(b *testing.B) {
	for _, deep := range []bool{false, true} {
		name := "single-frame"
		if deep {
			name = "deep-backtrace"
		}
		deep := deep
		b.Run(name, func(b *testing.B) {
			rt := pmrt.New(pmrt.Config{Seed: 1, PoolSize: 1 << 24, Backtraces: deep})
			err := rt.Run(func(c *pmrt.Ctx) {
				a := c.Alloc(64)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Store8(a, uint64(i))
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkDurinnBaseline measures the operation-level baseline's per-seed
// cost on a small workload — the §6.3 three-tool cost comparison's third
// column (see also BenchmarkTable3PerSeedCost).
func BenchmarkDurinnBaseline(b *testing.B) {
	e, err := apps.Lookup("P-Masstree")
	if err != nil {
		b.Fatal(err)
	}
	spec := ycsb.DefaultSpec(200)
	spec.LoadCount = 100
	spec.KeySpace = 1 << 10
	w := ycsb.Generate(spec, 3)
	cfg := durinn.DefaultConfig(3)
	cfg.MaxPairs = 4
	cfg.MaxBreakpoints = 8
	findings := 0
	for i := 0; i < b.N; i++ {
		res, err := durinn.Detect(e, w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		findings = len(res.Findings)
	}
	b.ReportMetric(float64(findings), "findings/op")
}
