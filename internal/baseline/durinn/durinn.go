// Package durinn implements an operation-level adversarial-interleaving
// detector modeled on Durinn (Fu et al., OSDI'22), the second
// state-of-the-art tool HawkSet is compared against (§6.3).
//
// Durinn targets durable-linearizability bugs in key-value stores: it
// serializes the execution, extracts likely-racy *operation pairs* (a
// mutating operation and a reading operation on the same key), and for each
// pair forces adversarial interleavings by placing breakpoints inside the
// writer and running the reader at every breakpoint, checking whether the
// reader observes visible-but-unpersisted state.
//
// The design's two structural properties — it requires key-value operation
// semantics (application-specific drivers), and its cost multiplies
// per-pair executions by per-operation breakpoints — are exactly what the
// paper's efficiency and agnosticism critiques describe: "While this
// approach works well for small workloads, it quickly becomes impractical
// for large workloads" (§6.3). Findings are reported at operation
// granularity, which is why §5.1 cannot confirm Durinn's reports equal
// HawkSet's PM-access-level reports.
package durinn

import (
	"fmt"
	"time"

	"hawkset/internal/apps"
	"hawkset/internal/pmrt"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
	"hawkset/internal/ycsb"
)

// Config bounds the search.
type Config struct {
	Seed int64
	// MaxPairs caps the number of operation pairs tested.
	MaxPairs int
	// MaxBreakpoints caps the breakpoints explored inside one writer
	// operation.
	MaxBreakpoints int
	// EvictAfter models the hardware cache's background writeback, as in the
	// PMRace baseline: windows usually close by accident on real PM.
	EvictAfter int
}

// DefaultConfig mirrors the published tool's bounded adversarial search.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, MaxPairs: 24, MaxBreakpoints: 24, EvictAfter: 70}
}

// Finding is one operation-level report: reader observed unpersisted state
// of writer at some breakpoint. Frames record the underlying PM accesses for
// cross-checking against HawkSet's reports (the real Durinn does not emit
// them; §5.1).
type Finding struct {
	Writer, Reader ycsb.OpKind
	Key            uint64
	Breakpoint     int
	StoreFrame     sites.Frame
	LoadFrame      sites.Frame
}

// Result summarizes one campaign.
type Result struct {
	Findings   []Finding
	PairsTried int
	Executions int
	Elapsed    time.Duration
}

// Detect runs the operation-pair search against the buggy variant of a
// key-value application. The workload supplies the load phase (the
// serialized history Durinn replays) and the candidate operations.
func Detect(e *apps.Entry, w *ycsb.Workload, cfg Config) (*Result, error) {
	start := time.Now()
	res := &Result{}

	pairs := candidatePairs(w, cfg.MaxPairs)
	seen := map[string]bool{}
	for _, pr := range pairs {
		res.PairsTried++
		// Measure the writer operation's instrumented length on a pristine
		// replica (Durinn's serialized pre-run).
		n, err := writerLength(e, w, pr.writer, cfg)
		if err != nil {
			return nil, err
		}
		res.Executions++
		if n > cfg.MaxBreakpoints {
			n = cfg.MaxBreakpoints
		}
		// Adversarial phase: re-execute with the writer paused before its
		// k-th instrumented operation while the reader runs to completion.
		for k := 1; k <= n; k++ {
			f, err := probeBreakpoint(e, w, pr, k, cfg)
			if err != nil {
				return nil, err
			}
			res.Executions++
			if f != nil {
				key := fmt.Sprintf("%v/%v/%s/%s", f.Writer, f.Reader, f.StoreFrame, f.LoadFrame)
				if !seen[key] {
					seen[key] = true
					res.Findings = append(res.Findings, *f)
				}
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

type pair struct {
	writer, reader ycsb.Op
}

// candidatePairs extracts likely-racy operation pairs: a mutating op and a
// get on the same key (Durinn's likely-linearizability-violating pairs).
func candidatePairs(w *ycsb.Workload, max int) []pair {
	writers := map[uint64]ycsb.Op{}
	for _, ops := range w.Threads {
		for _, op := range ops {
			switch op.Kind {
			case ycsb.OpInsert, ycsb.OpUpdate, ycsb.OpDelete, ycsb.OpSet:
				if _, ok := writers[op.Key]; !ok {
					writers[op.Key] = op
				}
			}
		}
	}
	var out []pair
	for _, ops := range w.Threads {
		for _, op := range ops {
			if op.Kind != ycsb.OpGet {
				continue
			}
			if wop, ok := writers[op.Key]; ok {
				out = append(out, pair{writer: wop, reader: op})
				delete(writers, op.Key) // one pair per key
				if len(out) >= max {
					return out
				}
			}
		}
	}
	return out
}

// writerLength replays the load phase and counts the writer operation's
// instrumented events.
func writerLength(e *apps.Entry, w *ycsb.Workload, wop ycsb.Op, cfg Config) (int, error) {
	rt := newRuntime(e, cfg, 0)
	app := e.Factory(rt, false)
	n := 0
	err := rt.Run(func(c *pmrt.Ctx) {
		app.Setup(c)
		for _, op := range w.Load {
			app.Apply(c, op)
		}
		count := 0
		rt.BeforeOp = func(*pmrt.Ctx, trace.Kind, uint64, uint32) { count++ }
		app.Apply(c, wop)
		rt.BeforeOp = nil
		n = count
	})
	return n, err
}

// probeBreakpoint re-executes the load phase, starts the writer on its own
// thread, pauses it before its k-th instrumented operation, runs the reader
// to completion, and reports any dirty read the reader observed.
func probeBreakpoint(e *apps.Entry, w *ycsb.Workload, pr pair, k int, cfg Config) (*Finding, error) {
	rt := newRuntime(e, cfg, int64(k))
	app := e.Factory(rt, false)
	var finding *Finding
	err := rt.Run(func(c *pmrt.Ctx) {
		app.Setup(c)
		for _, op := range w.Load {
			app.Apply(c, op)
		}
		count := 0
		var writerTh *pmrt.Thread
		rt.BeforeOp = func(wc *pmrt.Ctx, _ trace.Kind, _ uint64, _ uint32) {
			if wc.TID() != 0 {
				count++
				if count == k {
					wc.Park("durinn-breakpoint")
				}
			}
		}
		writerTh = c.Spawn(func(wc *pmrt.Ctx) {
			app.Apply(wc, pr.writer)
		})
		// Drive the writer to its breakpoint (or completion for short ops).
		for i := 0; i < 4*k+16 && !writerTh.Parked(); i++ {
			c.Yield()
		}
		// Reader runs now, with the observer armed.
		st := rt.Trace.Sites
		rt.OnDirtyRead = func(_ *pmrt.Ctx, loadSite sites.ID, _ uint64, _ uint32, _ int32, storeSite sites.ID) {
			if finding == nil {
				finding = &Finding{
					Writer: pr.writer.Kind, Reader: pr.reader.Kind, Key: pr.reader.Key,
					Breakpoint: k,
					StoreFrame: st.Lookup(storeSite), LoadFrame: st.Lookup(loadSite),
				}
			}
		}
		app.Apply(c, pr.reader)
		rt.OnDirtyRead = nil
		rt.BeforeOp = nil
		if writerTh.Parked() {
			c.Unpark(writerTh)
		}
		c.Join(writerTh)
	})
	return finding, err
}

func newRuntime(e *apps.Entry, cfg Config, salt int64) *pmrt.Runtime {
	return pmrt.New(pmrt.Config{
		Seed:         cfg.Seed + salt*104729,
		PoolSize:     e.PoolSize,
		NoTrace:      true,
		TrackWriters: true,
		EvictAfter:   cfg.EvictAfter,
	})
}
