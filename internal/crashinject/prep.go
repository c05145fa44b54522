package crashinject

import (
	"fmt"
	"time"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/obs"
	"hawkset/internal/pmem"
	"hawkset/internal/pmrt"
	"hawkset/internal/sites"
	"hawkset/internal/ycsb"
)

// Prep is a recorded execution of a registered application, ready for
// campaigns: the journal, the trace, the operation spans (for quiescence)
// and lazily-computed analysis artifacts. One Prep serves any number of
// campaigns (different strategies, budgets, targeted bugs) without
// re-running the application.
type Prep struct {
	Entry   *apps.Entry
	Fixed   bool
	Runtime *pmrt.Runtime
	App     apps.App
	// Spans are the [start,end) journal-position spans of Setup and every
	// mutating workload operation, in completion order. A position p with
	// start < p < end for some span has that operation in flight.
	Spans []Span
	// SetupEnd is the journal position where Setup's span ends; crash
	// points start there (a crash before initialization completed would
	// exercise re-initialization, not recovery).
	SetupEnd int

	inflight []int
	analysis *hawkset.Result
	windows  []hawkset.StoreWindow
}

// Span is a half-open journal-position interval.
type Span struct{ Start, End int }

// mutates reports whether a workload op kind can modify the structure;
// read-only ops never open store windows and need no span.
func mutates(k ycsb.OpKind) bool {
	return k != ycsb.OpGet && k != ycsb.OpScan && k != ycsb.OpRead
}

// Prepare records one instrumented execution of the application with the
// device-op journal enabled and operation spans captured. The workload,
// schedule and journal are deterministic in (opCount, seed, fixed).
func Prepare(e *apps.Entry, opCount int, seed int64, fixed bool) (*Prep, error) {
	return PrepareWith(e, opCount, seed, fixed, PrepOptions{})
}

// PrepOptions extends Prepare for consumers that need more than the plain
// recording. pmopt's apply gate records the same execution with candidate
// sites elided and counters attached; the zero value is exactly Prepare.
type PrepOptions struct {
	// Metrics receives the runtime's side-band counters (device_flush,
	// device_fence, ...) for before/after comparison.
	Metrics *obs.Registry
	// ElideSites is forwarded to pmrt.Config.ElideSites: flush/fence sites
	// to suppress during the recording.
	ElideSites map[string]bool
}

// PrepareWith is Prepare with recording options.
func PrepareWith(e *apps.Entry, opCount int, seed int64, fixed bool, opt PrepOptions) (*Prep, error) {
	w := e.Workload(opCount, seed)
	rt := pmrt.New(pmrt.Config{Seed: seed, PoolSize: e.PoolSize, RecordOps: true,
		Metrics: opt.Metrics, ElideSites: opt.ElideSites})
	app := e.Factory(rt, fixed)

	var spans []Span
	// record wraps an operation with journal-position capture. Spans from
	// worker closures are appended race-free: the cooperative scheduler
	// serializes all threads.
	record := func(f func()) {
		s := len(rt.Ops)
		f()
		spans = append(spans, Span{s, len(rt.Ops)})
	}
	err := rt.Run(func(c *pmrt.Ctx) {
		record(func() { app.Setup(c) })
		for _, op := range w.Load {
			op := op
			record(func() { app.Apply(c, op) })
		}
		var ths []*pmrt.Thread
		for _, ops := range w.Threads {
			ops := ops
			ths = append(ths, c.Spawn(func(wc *pmrt.Ctx) {
				for _, op := range ops {
					op := op
					if mutates(op.Kind) {
						record(func() { app.Apply(wc, op) })
					} else {
						app.Apply(wc, op)
					}
				}
			}))
		}
		for _, th := range ths {
			c.Join(th)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("crashinject: recording %s: %w", e.Name, err)
	}
	p := &Prep{
		Entry: e, Fixed: fixed, Runtime: rt, App: app,
		Spans: spans, SetupEnd: spans[0].End,
	}
	p.computeInflight()
	return p, nil
}

// computeInflight builds, via a difference array over journal positions,
// the number of operations in flight at every position 0..len(Ops). A span
// [s,e) has the operation in flight at positions strictly inside it:
// position s is "before its first device op" and e is "after its last",
// both safe to crash at from that operation's perspective. Spans are
// conservative — they may cover other threads' interleaved ops — which only
// shrinks the quiescent set, never falsely marks a position quiescent.
func (p *Prep) computeInflight() {
	n := len(p.Runtime.Ops)
	d := make([]int, n+2)
	for _, s := range p.Spans {
		if s.End-s.Start <= 1 {
			continue // no strictly-interior position
		}
		d[s.Start+1]++
		d[s.End]--
	}
	p.inflight = make([]int, n+1)
	run := 0
	for i := 0; i <= n; i++ {
		run += d[i]
		p.inflight[i] = run
	}
}

// Quiescent reports whether no mutating operation is in flight at a
// journal position.
func (p *Prep) Quiescent(pos int) bool { return p.inflight[pos] == 0 }

// Analysis runs (once, lazily) the PM-aware lockset analysis over the
// recorded trace; the targeted strategy derives its windows from it.
func (p *Prep) Analysis() *hawkset.Result {
	if p.analysis == nil {
		p.analysis = hawkset.Analyze(p.Runtime.Trace, hawkset.DefaultConfig())
	}
	return p.analysis
}

// Windows extracts (once, lazily) every store's unpersisted window from
// the recorded trace, in trace-event coordinates.
func (p *Prep) Windows() []hawkset.StoreWindow {
	if p.windows == nil {
		p.windows = hawkset.Windows(p.Runtime.Trace, hawkset.DefaultConfig())
	}
	return p.windows
}

// targetedSpans derives the Targeted strategy's event intervals: the
// unpersisted windows of every store site implicated in a race report.
// bugID restricts the reports to one registered bug (0 = all reports).
// The result is non-nil even when empty — the strategy is supported, it
// just enumerates no points.
func (p *Prep) targetedSpans(bugID int) [][2]int {
	siteSet := make(map[sites.ID]bool)
	for _, r := range p.Analysis().Reports {
		if bugID != 0 {
			matched := false
			for _, b := range p.Entry.Bugs {
				if b.ID == bugID && b.Matches(r) {
					matched = true
					break
				}
			}
			if !matched {
				continue
			}
		}
		siteSet[r.StoreSite] = true
	}
	spans := make([][2]int, 0, 16)
	for _, w := range p.Windows() {
		if siteSet[w.StoreSite] {
			spans = append(spans, [2]int{w.Start, w.End})
		}
	}
	return spans
}

// Target assembles the campaign input for this execution. bugID restricts
// the Targeted strategy's windows to the given registered bug's reports
// (0 = windows of every report).
func (p *Prep) Target(bugID int) *Target {
	t := &Target{
		Name:      p.Entry.Name,
		Fixed:     p.Fixed,
		PoolSize:  p.Runtime.Pool.Size(),
		Ops:       p.Runtime.Ops,
		MinPos:    p.SetupEnd,
		Quiescent: p.Quiescent,
	}
	if v, ok := p.App.(apps.CrashPointValidator); ok {
		t.PointCheck = v.ValidateCrashPoint
	}
	if v, ok := p.App.(apps.CrashValidator); ok {
		t.QuiescentCheck = v.ValidateCrash
	}
	if p.Entry.Recover != nil {
		entry, app, fixed := p.Entry, p.App, p.Fixed
		t.Recover = func(img *pmem.Pool, cfg Config) error {
			// The recovery runtime adopts the rebooted image; the
			// throwaway pool New allocates is kept minimal. Recovery code
			// allocates no PM, so the nil heap stays adequate.
			rrt := pmrt.NewWithPool(pmrt.Config{
				Seed:     cfg.Seed,
				PoolSize: pmem.LineSize,
				MaxSteps: cfg.RecoverySteps,
				NoTrace:  true,
			}, img, nil)
			var rerr error
			if err := rrt.Run(func(c *pmrt.Ctx) {
				rerr = entry.Recover(c, app, fixed)
			}); err != nil {
				return err
			}
			return rerr
		}
	}
	t.TargetedEventSpans = p.targetedSpans(bugID)
	return t
}

// BugOutcome summarizes the buggy-mode targeted campaign for one seeded
// bug in a differential run.
type BugOutcome struct {
	ID          int    `json:"id"`
	Description string `json:"description,omitempty"`
	Enumerated  int    `json:"enumerated"`
	Tested      int    `json:"tested"`
	Failed      int    `json:"failed"`
}

// DiffResult is a buggy-versus-fixed cross-check: each seeded bug's
// targeted campaign in buggy mode against the full targeted campaign in
// fixed mode.
type DiffResult struct {
	App   string       `json:"app"`
	Buggy []BugOutcome `json:"buggy"`
	Fixed *Campaign    `json:"fixed"`
}

// Holds reports whether the differential contract is met: every seeded bug
// produced at least one failing crash point in buggy mode, and the fixed
// variant produced none. Problems lists each violation.
func (d *DiffResult) Holds() (bool, []string) {
	var problems []string
	for _, b := range d.Buggy {
		if b.Failed == 0 {
			problems = append(problems, fmt.Sprintf("bug #%d: no failing crash point in buggy mode (%d tested of %d enumerated)", b.ID, b.Tested, b.Enumerated))
		}
	}
	if d.Fixed != nil && d.Fixed.Failed > 0 {
		problems = append(problems, fmt.Sprintf("fixed mode: %d failing crash points (want 0)", d.Fixed.Failed))
	}
	return len(problems) == 0, problems
}

// Differential runs the cross-check for an application: record buggy and
// fixed executions once each, then per seeded bug a targeted campaign on
// the buggy journal, and one targeted campaign over all reports on the
// fixed journal. The per-bug campaigns reuse the buggy Prep — the
// application runs exactly twice regardless of bug count.
func Differential(e *apps.Entry, opCount int, seed int64, cfg Config) (*DiffResult, error) {
	if e.Recover == nil {
		return nil, fmt.Errorf("crashinject: %s has no recovery hook", e.Name)
	}
	cfg.Strategy = Targeted
	start := time.Now()
	var deadline time.Time
	if cfg.Deadline > 0 {
		deadline = start.Add(cfg.Deadline)
	}
	remaining := func() time.Duration {
		if deadline.IsZero() {
			return 0
		}
		r := time.Until(deadline)
		if r <= 0 {
			r = time.Nanosecond // expired: campaigns still report skips
		}
		return r
	}

	pb, err := Prepare(e, opCount, seed, false)
	if err != nil {
		return nil, err
	}
	d := &DiffResult{App: e.Name}
	for _, b := range e.Bugs {
		c := cfg
		c.Deadline = remaining()
		camp, err := RunCampaign(pb.Target(b.ID), c)
		if err != nil {
			return nil, fmt.Errorf("crashinject: bug #%d campaign: %w", b.ID, err)
		}
		d.Buggy = append(d.Buggy, BugOutcome{
			ID: b.ID, Description: b.Description,
			Enumerated: camp.Enumerated, Tested: camp.Tested, Failed: camp.Failed,
		})
	}

	pf, err := Prepare(e, opCount, seed, true)
	if err != nil {
		return nil, err
	}
	c := cfg
	c.Deadline = remaining()
	d.Fixed, err = RunCampaign(pf.Target(0), c)
	if err != nil {
		return nil, fmt.Errorf("crashinject: fixed campaign: %w", err)
	}
	return d, nil
}
