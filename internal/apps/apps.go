// Package apps defines the common harness for the nine PM applications of
// the paper's evaluation (Table 1). Each application is a Go reimplementation
// on the instrumented runtime (internal/pmrt), carrying the paper's reported
// persistency-induced races as faithful seeded defects; constructing an app
// with Fixed=true repairs every defect, giving tests and experiments a
// correct-by-construction control. Each application registers itself from
// its package's init; importing internal/apps/all registers all nine.
package apps

import (
	"fmt"
	"strings"

	"hawkset/internal/hawkset"
	"hawkset/internal/obs"
	"hawkset/internal/pmrt"
	"hawkset/internal/ycsb"
)

// App is a PM application under test.
type App interface {
	// Name returns the application's evaluation name (Table 1).
	Name() string
	// Setup initializes the persistent structure on the main thread.
	Setup(c *pmrt.Ctx)
	// Apply executes one workload operation on behalf of a worker thread.
	Apply(c *pmrt.Ctx, op ycsb.Op)
}

// Factory builds an app instance bound to a runtime. fixed selects the
// defect-free variant.
type Factory func(rt *pmrt.Runtime, fixed bool) App

// Class is the manual classification of §3.3/Table 4.
type Class uint8

// Report classes.
const (
	Malign Class = iota // genuine race with observable bad behavior
	Benign              // genuine race tolerated by the application's design
	FalsePositive
)

func (c Class) String() string {
	switch c {
	case Malign:
		return "MR"
	case Benign:
		return "BR"
	default:
		return "FP"
	}
}

// BugSpec describes one paper-reported bug for Table 2.
type BugSpec struct {
	// ID is the paper's bug number (Table 2 #).
	ID int
	// New marks bugs the paper reports as previously unknown.
	New bool
	// Durinn marks bugs overlapping Durinn's findings (the * in Table 2).
	Durinn bool
	// StoreFunc/LoadFunc identify the racing accesses by (suffix of) the
	// function containing them — the reproduction's stable analogue of the
	// paper's file:line pairs, which shift with edits.
	StoreFunc, LoadFunc string
	// AllowPersisted matches the bug even when the store window was
	// correctly persisted. APEX's races (#19, #20) are of this kind: store
	// and persist sit inside the mutex, but the lock-free search can still
	// observe the window (§5.1); the fix is on the reader side.
	AllowPersisted bool
	// Extension marks bugs seeded beyond the paper's Table 2 (the
	// filesystem scenarios); experiments reproducing the paper's tables
	// skip them so the 20-bug accounting stays faithful.
	Extension bool
	// Description matches Table 2's description column.
	Description string
}

// Matches reports whether a race report corresponds to this bug. All Table 2
// races load *unpersisted* data, so a report only matches when at least one
// contributing store window was never explicitly persisted — the same
// (store, load) site pair in the Fixed variant is a benign lock-free-reader
// race, not the bug.
func (b BugSpec) Matches(r hawkset.Report) bool {
	return (r.Unpersisted || b.AllowPersisted) &&
		funcMatches(r.StoreFrame.Func, b.StoreFunc) && funcMatches(r.LoadFrame.Func, b.LoadFunc)
}

// funcMatches compares a fully-qualified Go function name against a
// registered pattern; patterns name the method, e.g. "(*Tree).insert".
func funcMatches(full, pattern string) bool {
	return strings.Contains(full, pattern)
}

// FuncPair classifies additional (store, load) function pairs that are
// genuine-but-tolerated races (Benign) in an application's design.
type FuncPair struct {
	StoreFunc, LoadFunc string
}

// Entry is one registered application.
type Entry struct {
	Name    string
	Factory Factory
	// Bugs are the paper's Table 2 races seeded in the buggy variant.
	Bugs []BugSpec
	// Benign lists function pairs whose reports are genuine races tolerated
	// by design (lock-free readers etc.), for the Table 4 classification.
	Benign []FuncPair
	// Spec produces the workload specification for a main-phase size,
	// matching §5's per-application benchmarks.
	Spec func(opCount int) ycsb.Spec
	// PoolSize overrides pmrt's default simulated device size, for the apps
	// whose footprint needs it at 100k operations.
	PoolSize uint64
	// MaxOps caps the workload size (P-ART "hangs for workloads larger
	// than 1k operations", §5 — reproduced as a documented cap); Workload
	// applies it.
	MaxOps int
	// Recover, when set, drives the application's recovery path on a
	// rebooted device: it re-attaches to the persistent structure the prev
	// instance created (prev supplies root addresses) and walks it the way
	// post-crash startup code would. It returns an error when recovery
	// itself detects corruption; it may also panic or livelock on a torn
	// image — the crash-injection harness (internal/crashinject) guards
	// both and converts them into inconsistent verdicts.
	Recover func(c *pmrt.Ctx, prev App, fixed bool) error
}

// Workload generates the entry's workload for a main-phase size of ops,
// capped at MaxOps.
func (e *Entry) Workload(ops int, seed int64) *ycsb.Workload {
	if e.MaxOps > 0 && ops > e.MaxOps {
		ops = e.MaxOps
	}
	return ycsb.Generate(e.Spec(ops), seed)
}

// Classify assigns the Table 4 class to a report. Any unpersisted-window
// report whose store side matches a registered bug is a manifestation of
// that defect (the same missing persist is frequently caught by several
// reader sites), so it classifies as malign even when the reader differs
// from the bug's primary load site.
func (e *Entry) Classify(r hawkset.Report) Class {
	for _, b := range e.Bugs {
		if b.Matches(r) {
			return Malign
		}
		if (r.Unpersisted || b.AllowPersisted) && funcMatches(r.StoreFrame.Func, b.StoreFunc) {
			return Malign
		}
	}
	for _, p := range e.Benign {
		if funcMatches(r.StoreFrame.Func, p.StoreFunc) && funcMatches(r.LoadFrame.Func, p.LoadFunc) {
			return Benign
		}
	}
	return FalsePositive
}

// Pairs builds the cross product of store and load function patterns, a
// convenience for registering benign lock-free-reader combinations.
func Pairs(stores, loads []string) []FuncPair {
	out := make([]FuncPair, 0, len(stores)*len(loads))
	for _, s := range stores {
		for _, l := range loads {
			out = append(out, FuncPair{StoreFunc: s, LoadFunc: l})
		}
	}
	return out
}

var registry []*Entry

// Register adds an application to the registry (called from each app
// package's init).
func Register(e *Entry) { registry = append(registry, e) }

// All returns the registered applications in registration order.
func All() []*Entry { return registry }

// Lookup finds an application by name.
func Lookup(name string) (*Entry, error) {
	for _, e := range registry {
		if strings.EqualFold(e.Name, name) {
			return e, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown application %q", name)
}

// RunConfig parameterizes an instrumented workload execution.
type RunConfig struct {
	Seed  int64
	Fixed bool
	// EADR runs the device with a persistent cache (ablation).
	EADR bool
	// NoTrace disables trace recording (observation-based baselines).
	NoTrace bool
	// InstrumentAllocs records PM allocations in the trace (the §7
	// extension; pairs with hawkset.Config.AllocAware).
	InstrumentAllocs bool
	// Metrics, when non-nil, receives the runtime's and device's side-band
	// counters (see pmrt.Config.Metrics). Execution is unaffected.
	Metrics *obs.Registry
}

// NewRuntime builds the instrumented runtime an application instance runs
// on, with the entry's pool size. Exposed separately from Run for callers
// that must interpose on the fresh runtime before execution — the pmcheckd
// streaming client binds to rt.Trace.Sites and installs itself as
// rt.EventSink between construction and RunOn.
func NewRuntime(e *Entry, cfg RunConfig) *pmrt.Runtime {
	return pmrt.New(pmrt.Config{
		Seed:             cfg.Seed,
		PoolSize:         e.PoolSize,
		EADR:             cfg.EADR,
		NoTrace:          cfg.NoTrace,
		InstrumentAllocs: cfg.InstrumentAllocs,
		Metrics:          cfg.Metrics,
	})
}

// Run executes a workload against a fresh instance of the application under
// the instrumented runtime and returns the runtime (whose Trace feeds the
// analyses). The load phase runs on the main thread before the workers
// spawn, exactly like the paper's benchmarks.
func Run(e *Entry, w *ycsb.Workload, cfg RunConfig) (*pmrt.Runtime, error) {
	rt := NewRuntime(e, cfg)
	return rt, RunOn(rt, e.Factory(rt, cfg.Fixed), w)
}

// RunOn drives a workload against an app on an existing runtime (the
// observation-based baseline builds its own). It is never inlined, so the
// Spawn and Join sites in its closure keep the name RunOn.func1.
//
//go:noinline
func RunOn(rt *pmrt.Runtime, app App, w *ycsb.Workload) error {
	return rt.Run(func(c *pmrt.Ctx) {
		app.Setup(c)
		for _, op := range w.Load {
			app.Apply(c, op)
		}
		var ths []*pmrt.Thread
		for _, ops := range w.Threads {
			ths = append(ths, c.Spawn(func(wc *pmrt.Ctx) {
				for _, op := range ops {
					app.Apply(wc, op)
				}
			}))
		}
		for _, th := range ths {
			c.Join(th)
		}
	})
}
