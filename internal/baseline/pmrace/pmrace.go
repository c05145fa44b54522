// Package pmrace implements the observation-based concurrent-PM-bug
// detector HawkSet is compared against in §5.2: a faithful analogue of
// PMRace's first stage (Chen et al., ASPLOS'22). The detector must actually
// *observe* a PM Inter-thread Inconsistency — a load reading
// visible-but-not-persistent data written by another thread — in a concrete
// interleaving. To make that more likely it runs the application many times,
// mutating the workload between executions (fuzzing) and injecting random
// delays at PM operations to perturb the schedule.
//
// The contrast with HawkSet is structural: the lockset analysis detects a
// race from a single execution with coverage, while this detector needs the
// racy interleaving itself, so its expected time to find a race is orders of
// magnitude larger (Table 3).
package pmrace

import (
	"math"
	"math/rand"
	"strings"
	"time"

	"hawkset/internal/apps"
	"hawkset/internal/pmrt"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
	"hawkset/internal/ycsb"
)

// Config tunes the detection campaign for one seed workload.
type Config struct {
	// Seed drives schedule randomization, delay injection and mutation.
	Seed int64
	// Executions is the fuzzing budget: the number of times the application
	// is run (the first run uses the seed workload, later runs mutate it).
	Executions int
	// DelayProb is the probability of injecting a delay before a PM
	// operation.
	DelayProb float64
	// DelaySteps is the number of scheduler yields injected per delay.
	DelaySteps int
	// EvictAfter is the hardware cache's background-writeback age in device
	// operations: unpersisted windows usually close by accident on real PM,
	// which is what makes direct observation rare (§5.2).
	EvictAfter int
	// PCTDepth, when positive, replaces uniform-random scheduling with PCT
	// (probabilistic concurrency testing) at the given bug depth — a
	// principled exploration strategy for the fuzzing campaign.
	PCTDepth int
	// Stage2 enables PMRace's second stage: after the detection campaign, a
	// post-failure consistency check of the crash image confirms whether the
	// observed inconsistencies have unresolved effects (the paper's
	// comparison deliberately excludes this stage's cost, §5.2; it is
	// available here for completeness). Requires the application to
	// implement apps.CrashValidator.
	Stage2 bool
}

// DefaultConfig mirrors the paper's setup in spirit: a bounded per-seed
// budget with delay injection enabled.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Executions: 5, DelayProb: 0.02, DelaySteps: 10, EvictAfter: 70}
}

// Observation is one observed dirty read, deduplicated by site pair.
type Observation struct {
	StoreFrame sites.Frame
	LoadFrame  sites.Frame
	Count      int
}

// Result summarizes a campaign.
type Result struct {
	Observations []Observation
	Executions   int
	Elapsed      time.Duration
	// Stage-2 output (Config.Stage2): post-crash structural violations
	// confirming the observations' effects survive a failure.
	Stage2Ran  bool
	Violations []string
}

// MatchesBug reports whether any observation corresponds to the given bug
// spec (same function-pair matching as HawkSet's reports, so the comparison
// is apples-to-apples).
func (r *Result) MatchesBug(storeFunc, loadFunc string) bool {
	for _, o := range r.Observations {
		if strings.Contains(o.StoreFrame.Func, storeFunc) && strings.Contains(o.LoadFrame.Func, loadFunc) {
			return true
		}
	}
	return false
}

// Detect runs the fuzzing campaign for one seed workload against the buggy
// variant of the application.
func Detect(e *apps.Entry, w *ycsb.Workload, cfg Config) (*Result, error) {
	start := time.Now()
	res := &Result{}
	obs := map[[2]sites.ID]*Observation{}
	rng := rand.New(rand.NewSource(cfg.Seed))

	for exec := 0; exec < cfg.Executions; exec++ {
		wl := w
		if exec > 0 {
			wl = ycsb.Mutate(w, cfg.Seed+int64(exec))
		}
		rt := pmrt.New(pmrt.Config{
			Seed:         cfg.Seed + int64(exec)*7919,
			PoolSize:     e.PoolSize,
			NoTrace:      true, // observation only; no trace, no analysis
			TrackWriters: true,
			EvictAfter:   cfg.EvictAfter,
			PCTDepth:     cfg.PCTDepth,
		})
		delayRng := rand.New(rand.NewSource(rng.Int63()))
		rt.BeforeOp = func(c *pmrt.Ctx, k trace.Kind, addr uint64, size uint32) {
			// PMRace injects delays around PM operations to widen the
			// visible-but-not-persistent windows it must observe.
			switch k {
			case trace.KStore, trace.KNTStore, trace.KFlush, trace.KFence:
				if delayRng.Float64() < cfg.DelayProb {
					for i := 0; i < cfg.DelaySteps; i++ {
						c.Yield()
					}
				}
			}
		}
		st := rt.Trace.Sites
		rt.OnDirtyRead = func(c *pmrt.Ctx, loadSite sites.ID, addr uint64, size uint32, writer int32, storeSite sites.ID) {
			key := [2]sites.ID{storeSite, loadSite}
			if o, ok := obs[key]; ok {
				o.Count++
				return
			}
			obs[key] = &Observation{
				StoreFrame: st.Lookup(storeSite),
				LoadFrame:  st.Lookup(loadSite),
				Count:      1,
			}
		}
		app := e.Factory(rt, false)
		if err := apps.RunOn(rt, app, wl); err != nil {
			return nil, err
		}
		res.Executions++
	}
	for _, o := range obs {
		res.Observations = append(res.Observations, *o)
	}
	if cfg.Stage2 && len(res.Observations) > 0 {
		violations, err := apps.RunAndValidate(e, w.TotalOps(), cfg.Seed, apps.RunConfig{Seed: cfg.Seed})
		if err == nil { // apps without validators simply skip stage 2
			res.Stage2Ran = true
			res.Violations = violations
			res.Executions++
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// ExpectedTimeToRace evaluates the paper's §5.2 metric: the expected time to
// find a specific race when workloads are drawn at random without
// replacement from a corpus where the tool finds the race in s workloads and
// misses it in e, spending t seconds per workload. The paper's binomial
// expression collapses to the closed form t·(e/2 + 1); it reproduces the
// paper's 69900.00 s, 439.19 s and 422.55 s entries exactly. It returns +Inf
// when the tool never finds the race (s == 0), Table 3's "∞".
func ExpectedTimeToRace(e, s int, t float64) float64 {
	if s == 0 {
		return math.Inf(1)
	}
	return t * (float64(e)/2 + 1)
}
