// Package crashinject implements a crash-point fault-injection campaign:
// the missing experimental link between a HawkSet race report and a
// demonstrable post-crash failure (§5.1 argues a crash inside the
// unpersisted window loses or corrupts data; this package crashes there and
// checks).
//
// A campaign replays a recorded device-op journal (pmem.Op, captured by
// pmrt under Config.RecordOps) against a fresh simulated device, enumerates
// crash points under a selectable strategy — after every fence, flush or
// store, or *targeted*: only inside the unpersisted windows of reported
// races — materializes the crash image at each point with one incremental
// replay (never re-running the application), and drives the application's
// recovery path plus its crash validators on every image.
//
// Chipmunk-style systematic crash testing shows most crash-consistency bugs
// surface only at specific crash points; the campaign makes those points
// first-class, with a budget and deadline for graceful degradation
// (deterministic sampling, skipped points reported — never silently
// truncated) and with panic/livelock containment around recovery code
// running on torn images.
package crashinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"hawkset/internal/obs"
	"hawkset/internal/pmem"
	"hawkset/internal/sched"
)

// Strategy selects which journal positions become crash points.
type Strategy uint8

// Crash-point strategies.
const (
	// AfterFence crashes after every fence: the coarsest sweep, one point
	// per persistence boundary.
	AfterFence Strategy = iota
	// AfterFlush crashes after every flush instruction (before the fence
	// that would commit it).
	AfterFlush
	// AfterStore crashes after every store: the finest exhaustive sweep.
	AfterStore
	// Targeted crashes only at positions inside the unpersisted windows of
	// the analysis' race reports — the points where §5.1 predicts failure.
	Targeted
)

var strategyNames = map[Strategy]string{
	AfterFence: "fence", AfterFlush: "flush", AfterStore: "store", Targeted: "targeted",
}

func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("strategy(%d)", uint8(s))
}

// Strategies lists every strategy in declaration order.
func Strategies() []Strategy { return []Strategy{AfterFence, AfterFlush, AfterStore, Targeted} }

// ParseStrategy resolves a strategy name (as used by the -strategy flag).
func ParseStrategy(name string) (Strategy, error) {
	for s, n := range strategyNames {
		if strings.EqualFold(name, n) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("crashinject: unknown strategy %q (want fence, flush, store or targeted)", name)
}

// Config parameterizes a campaign.
type Config struct {
	Strategy Strategy
	// Budget caps the number of points tested. 0 means DefaultBudget;
	// negative means unlimited. Quiescent points are sampled first (full
	// validation is only sound there), then the remainder fills up with
	// non-quiescent points; both draws are deterministic in Seed.
	Budget int
	// Deadline bounds the campaign's wall-clock time; points not reached
	// are counted in Campaign.SkippedDeadline (0 = no deadline).
	Deadline time.Duration
	// Seed drives sampling and the recovery runtime's scheduler.
	Seed int64
	// PointTimeout is the wall-clock guard around one recovery probe; the
	// scheduler step bound (RecoverySteps) normally fires long before it,
	// keeping campaigns deterministic. 0 means 10s.
	PointTimeout time.Duration
	// RecoverySteps bounds the recovery run's scheduling steps, converting
	// a livelocked recovery on a torn image into a deterministic hung
	// verdict. 0 means 1<<20.
	RecoverySteps uint64
	// Metrics, when non-nil, receives side-band campaign counters (point
	// accounting, verdict tallies, per-point duration). The campaign result
	// is byte-identical with or without it.
	Metrics *obs.Registry
	// OnProgress, when set, receives throttled progress samples while the
	// campaign runs (at most one per ProgressEvery) plus one final sample
	// with Done set. Long sweeps (AfterStore over a large journal) otherwise
	// run silent for minutes.
	OnProgress func(Progress)
	// ProgressEvery is the minimum interval between OnProgress samples.
	// 0 means 1s.
	ProgressEvery time.Duration
}

// DefaultBudget is the per-campaign point cap when Config.Budget is 0.
const DefaultBudget = 64

func (c Config) withDefaults() Config {
	if c.Budget == 0 {
		c.Budget = DefaultBudget
	}
	if c.PointTimeout == 0 {
		c.PointTimeout = 10 * time.Second
	}
	if c.RecoverySteps == 0 {
		c.RecoverySteps = 1 << 20
	}
	if c.ProgressEvery == 0 {
		c.ProgressEvery = time.Second
	}
	return c
}

// Progress is one campaign progress sample, delivered via Config.OnProgress.
// Progress is presentation-only (a status line, a TUI): it carries wall-clock
// rates and must never be folded into a campaign result or report document.
type Progress struct {
	Target   string
	Strategy string
	// Tested counts points probed so far; Selected is the sampled total the
	// campaign will test (after budget, before any deadline skip).
	Tested   int
	Selected int
	Failed   int
	// SkippedBudget counts enumerated points dropped by sampling.
	SkippedBudget int
	Elapsed       time.Duration
	// PointsPerSec is the campaign's current throughput (0 until measurable).
	PointsPerSec float64
	// ETA estimates the time remaining at the current rate (0 when unknown
	// or done).
	ETA time.Duration
	// Done marks the final sample, sent after the last point (or the
	// deadline) regardless of throttling.
	Done bool
}

// VerdictInconsistent is a failing crash point's outcome: what went wrong
// on the crash image. A nil *VerdictInconsistent is a consistent point.
type VerdictInconsistent struct {
	// Violations are invariant violations from the crash validators.
	Violations []string `json:"violations,omitempty"`
	// RecoveryErr is the corruption the app's own recovery pass detected.
	RecoveryErr string `json:"recovery_err,omitempty"`
	// Panic records recovery (or validation) code panicking on the image.
	Panic string `json:"panic,omitempty"`
	// Hung records recovery exceeding its step bound or wall timeout.
	Hung bool `json:"hung,omitempty"`
}

func (v *VerdictInconsistent) String() string {
	var parts []string
	if v.Hung {
		parts = append(parts, "recovery hung")
	}
	if v.Panic != "" {
		parts = append(parts, "panic: "+v.Panic)
	}
	if v.RecoveryErr != "" {
		parts = append(parts, v.RecoveryErr)
	}
	parts = append(parts, v.Violations...)
	return strings.Join(parts, "; ")
}

// PointResult is the outcome of testing one crash point.
type PointResult struct {
	// Pos is the journal position: the crash image is the persistent view
	// after applying ops[0:Pos].
	Pos int `json:"pos"`
	// Seq is the trace-event index of the op crashed after (-1 untraced).
	Seq int `json:"seq"`
	// Op is the kind of the op crashed after.
	Op string `json:"op"`
	// Quiescent marks points with no application operation in flight; only
	// there is full (view-comparing) validation sound.
	Quiescent bool `json:"quiescent"`
	// Inconsistent is non-nil when the point failed.
	Inconsistent *VerdictInconsistent `json:"inconsistent,omitempty"`
}

// Failed reports whether the point produced an inconsistent verdict.
func (p PointResult) Failed() bool { return p.Inconsistent != nil }

// Campaign is one fault-injection run's accounting. Skipped points are
// reported explicitly: a budget- or deadline-bounded campaign degrades
// gracefully, never silently.
type Campaign struct {
	Target   string `json:"target"`
	Fixed    bool   `json:"fixed"`
	Strategy string `json:"strategy"`
	// Enumerated is the number of crash points the strategy produced.
	Enumerated int `json:"enumerated"`
	Tested     int `json:"tested"`
	Failed     int `json:"failed"`
	// SkippedBudget counts enumerated points dropped by sampling.
	SkippedBudget int `json:"skipped_budget"`
	// SkippedDeadline counts sampled points abandoned at the deadline.
	SkippedDeadline int `json:"skipped_deadline"`
	// ElapsedMS is wall-clock accounting for interactive display only. It is
	// excluded from JSON so campaign documents stay byte-identical across
	// runs (the side-band invariant: wall-clock values live in metrics
	// snapshots and progress samples, never in result documents).
	ElapsedMS int64         `json:"-"`
	Points    []PointResult `json:"points,omitempty"`
}

// Failures returns the failing points.
func (c *Campaign) Failures() []PointResult {
	var out []PointResult
	for _, p := range c.Points {
		if p.Failed() {
			out = append(out, p)
		}
	}
	return out
}

// Target is the low-level campaign input: a recorded journal plus
// validation and recovery hooks. Prep.Target builds one from a registered
// application; tests hand-craft Targets to drive the harness against
// synthetic (panicking, livelocking) recovery code.
type Target struct {
	Name  string
	Fixed bool
	// PoolSize is the recorded device's size.
	PoolSize uint64
	// Ops is the device-op journal of the recorded execution.
	Ops []pmem.Op
	// MinPos is the first eligible crash position: points before the
	// application finished initializing are skipped (a crash there is a
	// re-initialization, not a recovery, and no structural invariant holds
	// yet).
	MinPos int
	// Quiescent reports whether no application operation is in flight at a
	// position; nil treats every position as quiescent.
	Quiescent func(pos int) bool
	// PointCheck validates invariants that hold at every serialization
	// point (apps.CrashPointValidator); it receives the rebooted image.
	PointCheck func(img *pmem.Pool) []string
	// QuiescentCheck is the full validation (apps.CrashValidator),
	// applied only at quiescent points; it receives the LIVE replayed
	// device, whose volatile view is the pre-crash state and whose
	// persistent view is the crash image, so it can detect silent data
	// loss and resurrected deletes by comparing the views.
	QuiescentCheck func(live *pmem.Pool) []string
	// Recover drives the application's recovery path against the rebooted
	// image. It may return a detected-corruption error, panic, or
	// livelock; the campaign contains all three.
	Recover func(img *pmem.Pool, cfg Config) error
	// TargetedEventSpans are the unpersisted windows (trace-event
	// coordinate half-open intervals) the Targeted strategy crashes
	// inside. nil marks the strategy unsupported for this target; an empty
	// non-nil slice means no windows, enumerating zero points.
	TargetedEventSpans [][2]int
}

// enumerate lists the strategy's crash positions in ascending order.
func enumerate(t *Target, s Strategy) ([]int, error) {
	min := t.MinPos
	if min < 1 {
		min = 1
	}
	var pts []int
	add := func(p int, want bool) {
		if want {
			pts = append(pts, p)
		}
	}
	switch s {
	case AfterFence, AfterFlush, AfterStore:
		for p := min; p <= len(t.Ops); p++ {
			switch k := t.Ops[p-1].Kind; s {
			case AfterFence:
				add(p, k == pmem.OpFence)
			case AfterFlush:
				add(p, k == pmem.OpFlush)
			case AfterStore:
				add(p, k == pmem.OpStore || k == pmem.OpNTStore)
			}
		}
	case Targeted:
		if t.TargetedEventSpans == nil {
			return nil, fmt.Errorf("crashinject: target %q does not support the targeted strategy (no analysis windows)", t.Name)
		}
		spans := mergeSpans(t.TargetedEventSpans)
		for p := min; p <= len(t.Ops); p++ {
			seq := t.Ops[p-1].Seq
			add(p, seq >= 0 && inSpans(spans, seq))
		}
	default:
		return nil, fmt.Errorf("crashinject: unknown strategy %d", s)
	}
	return pts, nil
}

// mergeSpans sorts and coalesces half-open intervals.
func mergeSpans(in [][2]int) [][2]int {
	if len(in) == 0 {
		return nil
	}
	spans := make([][2]int, len(in))
	copy(spans, in)
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	out := spans[:1]
	for _, s := range spans[1:] {
		if s[0] <= out[len(out)-1][1] {
			if s[1] > out[len(out)-1][1] {
				out[len(out)-1][1] = s[1]
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// inSpans reports whether x lies in one of the merged, sorted intervals.
func inSpans(spans [][2]int, x int) bool {
	i := sort.Search(len(spans), func(i int) bool { return spans[i][1] > x })
	return i < len(spans) && spans[i][0] <= x
}

// samplePoints applies the budget: quiescent points first (only they get
// full validation, so they carry the most signal per test), then
// non-quiescent fill, both drawn deterministically from seed and returned
// in ascending order.
func samplePoints(t *Target, pts []int, budget int, seed int64) []int {
	if budget <= 0 || len(pts) <= budget {
		return pts
	}
	quiescent := func(p int) bool { return t.Quiescent == nil || t.Quiescent(p) }
	var q, rest []int
	for _, p := range pts {
		if quiescent(p) {
			q = append(q, p)
		} else {
			rest = append(rest, p)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func(src []int, n int) []int {
		if n >= len(src) {
			return src
		}
		idx := rng.Perm(len(src))[:n]
		sort.Ints(idx)
		out := make([]int, n)
		for i, j := range idx {
			out[i] = src[j]
		}
		return out
	}
	sel := pick(q, budget)
	if len(sel) < budget {
		sel = append(sel, pick(rest, budget-len(sel))...)
	}
	sort.Ints(sel)
	return sel
}

// RunCampaign executes the fault-injection campaign against a target. The
// whole campaign costs one linear journal replay: points are visited in
// ascending order and the device is advanced incrementally.
func RunCampaign(t *Target, cfg Config) (*Campaign, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	pts, err := enumerate(t, cfg.Strategy)
	if err != nil {
		return nil, err
	}
	camp := &Campaign{
		Target: t.Name, Fixed: t.Fixed, Strategy: cfg.Strategy.String(),
		Enumerated: len(pts),
	}
	sel := samplePoints(t, pts, cfg.Budget, cfg.Seed)
	camp.SkippedBudget = len(pts) - len(sel)
	cfg.Metrics.Counter("crashinject.points.enumerated").Add(uint64(len(pts)))
	cfg.Metrics.Counter("crashinject.points.skipped_budget").Add(uint64(camp.SkippedBudget))
	mTested := cfg.Metrics.Counter("crashinject.points.tested")
	mFailed := cfg.Metrics.Counter("crashinject.points.failed")
	mPoint := cfg.Metrics.Histogram("crashinject.point")
	progress := func(done bool) Progress {
		elapsed := time.Since(start)
		p := Progress{
			Target: t.Name, Strategy: camp.Strategy,
			Tested: camp.Tested, Selected: len(sel), Failed: camp.Failed,
			SkippedBudget: camp.SkippedBudget,
			Elapsed:       elapsed, Done: done,
		}
		if elapsed > 0 && camp.Tested > 0 {
			p.PointsPerSec = float64(camp.Tested) / elapsed.Seconds()
			if remaining := len(sel) - camp.Tested; remaining > 0 && !done {
				p.ETA = time.Duration(float64(remaining) / p.PointsPerSec * float64(time.Second))
			}
		}
		return p
	}
	lastProgress := start

	var deadline time.Time
	if cfg.Deadline > 0 {
		deadline = start.Add(cfg.Deadline)
	}
	rep := pmem.NewReplayer(t.PoolSize)
	var scratch *pmem.Pool
	for i, pos := range sel {
		if !deadline.IsZero() && time.Now().After(deadline) {
			camp.SkippedDeadline = len(sel) - i
			break
		}
		rep.AdvanceTo(t.Ops, pos)
		pr := PointResult{
			Pos: pos, Seq: t.Ops[pos-1].Seq, Op: t.Ops[pos-1].Kind.String(),
			Quiescent: t.Quiescent == nil || t.Quiescent(pos),
		}
		stopPoint := mPoint.Time()
		pr.Inconsistent, scratch = testPoint(t, cfg, rep.Pool(), pr.Quiescent, scratch)
		stopPoint()
		mTested.Inc()
		if pr.Failed() {
			camp.Failed++
			mFailed.Inc()
		}
		tallyVerdict(cfg.Metrics, pr.Inconsistent)
		camp.Points = append(camp.Points, pr)
		camp.Tested++
		if cfg.OnProgress != nil && time.Since(lastProgress) >= cfg.ProgressEvery {
			lastProgress = time.Now()
			cfg.OnProgress(progress(false))
		}
	}
	cfg.Metrics.Counter("crashinject.points.skipped_deadline").Add(uint64(camp.SkippedDeadline))
	cfg.Metrics.Counter("crashinject.ops_replayed").Add(uint64(rep.Pos()))
	camp.ElapsedMS = time.Since(start).Milliseconds()
	if cfg.OnProgress != nil {
		cfg.OnProgress(progress(true))
	}
	return camp, nil
}

// tallyVerdict counts one point's outcome into the verdict counters.
func tallyVerdict(m *obs.Registry, v *VerdictInconsistent) {
	if m == nil {
		return
	}
	switch {
	case v == nil:
		m.Counter("crashinject.verdict.consistent").Inc()
	case v.Hung:
		m.Counter("crashinject.verdict.hung").Inc()
	case v.Panic != "":
		m.Counter("crashinject.verdict.panics").Inc()
	case v.RecoveryErr != "":
		m.Counter("crashinject.verdict.recovery_errors").Inc()
	default:
		m.Counter("crashinject.verdict.violations").Inc()
	}
}

// dedupe keeps the first occurrence of each string, preserving order.
func dedupe(in []string) []string {
	if len(in) < 2 {
		return in
	}
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// errProbePanic tags a recovery-probe panic that escaped the scheduler
// (e.g. while constructing the recovery runtime).
var errProbePanic = errors.New("recovery probe panicked")

// testPoint tests one crash point: reboot the image, run the always-safe
// checks, the full quiescent checks when sound, and the guarded recovery
// probe. It returns the verdict (nil = consistent) and the scratch pool to
// reuse for the next point's reboot (nil when the probe may still be
// running after a timeout and the buffers cannot be reused safely).
func testPoint(t *Target, cfg Config, live *pmem.Pool, quiescent bool, scratch *pmem.Pool) (verdict *VerdictInconsistent, outScratch *pmem.Pool) {
	img := live.RebootClone(scratch)
	outScratch = img

	v := &VerdictInconsistent{}
	// Validators walk untrusted persistent images; a panic there is itself
	// an inconsistency, not a campaign abort.
	func() {
		defer func() {
			if r := recover(); r != nil {
				v.Panic = fmt.Sprintf("validator: %v", r)
			}
		}()
		if t.PointCheck != nil {
			v.Violations = append(v.Violations, t.PointCheck(img)...)
		}
		if quiescent && t.QuiescentCheck != nil {
			v.Violations = append(v.Violations, t.QuiescentCheck(live)...)
		}
		// The full validator typically subsumes the always-safe walk, so
		// the two passes repeat findings; keep each violation once.
		v.Violations = dedupe(v.Violations)
	}()

	if t.Recover != nil && v.Panic == "" {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("%w: %v", errProbePanic, r)
				}
			}()
			done <- t.Recover(img, cfg)
		}()
		select {
		case err := <-done:
			switch {
			case err == nil:
			case errors.Is(err, sched.ErrAppPanic) || errors.Is(err, errProbePanic):
				v.Panic = err.Error()
			case errors.Is(err, sched.ErrStepBound) || errors.Is(err, sched.ErrDeadlock):
				v.Hung = true
			default:
				v.RecoveryErr = err.Error()
			}
		case <-time.After(cfg.PointTimeout):
			v.Hung = true
			// The probe goroutine may still be mutating img; abandon the
			// buffers rather than reuse them.
			outScratch = nil
		}
	}

	if len(v.Violations) > 0 || v.RecoveryErr != "" || v.Panic != "" || v.Hung {
		verdict = v
	}
	return verdict, outScratch
}
