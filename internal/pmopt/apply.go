package pmopt

// Apply: elide a candidate site set and prove it safe. The elision itself
// is pmrt's yield-preserving ElideSites hook (scheduling unchanged, device
// ops suppressed); safety is established by four independent gates over the
// elided recording, against the baseline recording AnalyzeApp made:
//
//  1. the HawkSet race report must be byte-identical — eliminating
//     redundant persistence work must not create, destroy or move any
//     unpersisted-window race;
//  2. a full crash-injection sweep (every strategy) over the elided journal
//     must report zero failing crash points;
//  3. the journals' flush and fence counts must actually drop — an
//     "optimization" that removes nothing is reported as a failure, not
//     silently accepted;
//  4. a journal-aligned image differential: because elision is
//     yield-preserving, the elided journal must equal the baseline journal
//     minus the elided sites' ops in identical order, and the persistent
//     image must agree at every aligned position — i.e. a crash anywhere
//     yields the same recoverable image with or without the elision. Both
//     journals replay through pmem.Replayer, whose fence commits name the
//     only bytes that can have moved.
//
// Gate 4 subsumes most of gate 2 in theory (same images → same recovery
// verdicts), but the sweep exercises the real recovery code against the
// elided journal's own coordinates, so both are kept.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"hawkset/internal/crashinject"
	"hawkset/internal/pmem"
	"hawkset/internal/report"
	"hawkset/internal/sites"
)

// ApplyResult records the before/after measurement and every gate verdict.
type ApplyResult struct {
	App   string   `json:"app"`
	Sites []string `json:"sites"`
	// Device-op counts of the two journals.
	BaselineFlushes uint64 `json:"baseline_flushes"`
	BaselineFences  uint64 `json:"baseline_fences"`
	OptFlushes      uint64 `json:"opt_flushes"`
	OptFences       uint64 `json:"opt_fences"`
	// ElidedOps counts the baseline ops gate 4's journal walk matched to
	// elided sites, up to the first divergence it found.
	ElidedOps uint64 `json:"elided_ops"`
	// Gate verdicts.
	RacesIdentical bool `json:"races_identical"`
	SweepTested    int  `json:"sweep_tested"`
	SweepFailed    int  `json:"sweep_failed"`
	JournalAligned bool `json:"journal_aligned"`
	// Problems lists every violated gate; empty means the elimination is
	// accepted.
	Problems []string `json:"problems,omitempty"`
}

// OK reports whether every safety gate held.
func (r *ApplyResult) OK() bool { return len(r.Problems) == 0 }

// FlushReduction returns eliminated flush ops.
func (r *ApplyResult) FlushReduction() uint64 { return r.BaselineFlushes - r.OptFlushes }

// FenceReduction returns eliminated fence ops.
func (r *ApplyResult) FenceReduction() uint64 { return r.BaselineFences - r.OptFences }

// Apply re-records base's execution with the given sites elided and runs the
// safety gates against base. base is the recording AnalyzeApp returned as
// Result.Prep for the same opCount and seed. siteKeys must be
// module-relative "file.go:line" keys (AnalyzeApp's Eliminable set). sweep
// configures the crash-injection campaigns (Strategy is overridden;
// Budget/Deadline/Seed are honored).
func Apply(base *crashinject.Prep, opCount int, seed int64, siteKeys []string, sweep crashinject.Config) (*ApplyResult, error) {
	e := base.Entry
	if len(siteKeys) == 0 {
		return nil, fmt.Errorf("pmopt: no sites to apply for %s", e.Name)
	}
	elide := make(map[string]bool, len(siteKeys))
	for _, k := range siteKeys {
		elide[k] = true
	}

	opt, err := crashinject.PrepareWith(e, opCount, seed, base.Fixed, crashinject.PrepOptions{ElideSites: elide})
	if err != nil {
		return nil, err
	}

	res := &ApplyResult{App: e.Name, Sites: siteKeys}
	res.BaselineFlushes, res.BaselineFences = countPersistOps(base.Runtime.Ops)
	res.OptFlushes, res.OptFences = countPersistOps(opt.Runtime.Ops)

	// Gate 3: the elimination must remove real device work.
	if res.OptFlushes+res.OptFences >= res.BaselineFlushes+res.BaselineFences {
		res.Problems = append(res.Problems, fmt.Sprintf(
			"no device-op reduction: %d flushes + %d fences before, %d + %d after",
			res.BaselineFlushes, res.BaselineFences, res.OptFlushes, res.OptFences))
	}

	// Gate 4: journal-aligned persistent-image differential.
	res.ElidedOps, err = journalDiff(base, opt, elide)
	if err != nil {
		res.Problems = append(res.Problems, err.Error())
	} else {
		res.JournalAligned = true
	}

	// Gate 1: the race report must not move by a byte.
	wl := fmt.Sprintf("%d ops, seed %d, fixed", opCount, seed)
	br, err := json.Marshal(report.New(base.Analysis(), e.Name, wl, nil).Races)
	if err != nil {
		return nil, err
	}
	or, err := json.Marshal(report.New(opt.Analysis(), e.Name, wl, nil).Races)
	if err != nil {
		return nil, err
	}
	if bytes.Equal(br, or) {
		res.RacesIdentical = true
	} else {
		res.Problems = append(res.Problems, "hawkset race report changed under elision")
	}

	// Gate 2: full-strategy crash sweep over the elided journal.
	target := opt.Target(0)
	for _, s := range crashinject.Strategies() {
		cfg := sweep
		cfg.Strategy = s
		camp, err := crashinject.RunCampaign(target, cfg)
		if err != nil {
			return nil, fmt.Errorf("pmopt: %s sweep: %w", s, err)
		}
		res.SweepTested += camp.Tested
		res.SweepFailed += camp.Failed
		if camp.Failed > 0 {
			res.Problems = append(res.Problems, fmt.Sprintf(
				"%s strategy: %d failing crash point(s) after elision", s, camp.Failed))
		}
	}
	return res, nil
}

// countPersistOps counts a journal's flushes and fences.
func countPersistOps(ops []pmem.Op) (flushes, fences uint64) {
	for _, op := range ops {
		switch op.Kind {
		case pmem.OpFlush:
			flushes++
		case pmem.OpFence:
			fences++
		}
	}
	return flushes, fences
}

// journalDiff verifies the yield-preservation contract between the two
// recordings: the elided journal is exactly the baseline journal minus
// flush/fence ops from elided sites, and at every aligned position the two
// persistent images agree (volatile too — checked once at the end, since
// stores are never elided). It returns the number of baseline ops it
// matched to elided sites.
func journalDiff(base, opt *crashinject.Prep, elide map[string]bool) (uint64, error) {
	size := base.Runtime.Pool.Size()
	if s := opt.Runtime.Pool.Size(); s != size {
		return 0, fmt.Errorf("journal differential: pool sizes differ (%d vs %d)", size, s)
	}
	tab := base.Runtime.Trace.Sites
	bops, eops := base.Runtime.Ops, opt.Runtime.Ops
	br, er := pmem.NewReplayer(size), pmem.NewReplayer(size)
	var elided uint64
	ei := 0
	for bi, op := range bops {
		if (op.Kind == pmem.OpFlush || op.Kind == pmem.OpFence) && elide[tab.Lookup(sites.ID(op.Site)).Key()] {
			// Baseline-only op: apply it to the baseline replay alone. If it
			// committed anything the images diverge right here.
			elided++
			if err := samePersistent(br.Pool(), er.Pool(), bi, br.Apply(op)); err != nil {
				return elided, err
			}
			continue
		}
		if ei >= len(eops) {
			return elided, fmt.Errorf("journal differential: elided journal ends %d op(s) early", len(bops)-bi)
		}
		eop := eops[ei]
		if op.Kind != eop.Kind || op.TID != eop.TID || op.Addr != eop.Addr ||
			op.Size != eop.Size || !bytes.Equal(op.Data, eop.Data) {
			return elided, fmt.Errorf("journal differential: op misalignment at baseline %d / elided %d (%s vs %s)",
				bi, ei, op.Kind, eop.Kind)
		}
		if err := samePersistent(br.Pool(), er.Pool(), bi, br.Apply(op), er.Apply(eop)); err != nil {
			return elided, err
		}
		ei++
	}
	if ei != len(eops) {
		return elided, fmt.Errorf("journal differential: elided journal has %d unexpected trailing op(s)", len(eops)-ei)
	}
	if _, differ := br.Pool().DiffPersistent(er.Pool(), 0, size); differ {
		return elided, fmt.Errorf("journal differential: final persistent images differ")
	}
	if _, differ := br.Pool().DiffVolatile(er.Pool(), 0, size); differ {
		return elided, fmt.Errorf("journal differential: final volatile images differ")
	}
	return elided, nil
}

// samePersistent compares two devices' persistent bytes over the ranges one
// journal step committed on either side; bytes outside a commit cannot have
// moved.
func samePersistent(a, b *pmem.Pool, pos int, commits ...[]pmem.Commit) error {
	for _, cs := range commits {
		for _, c := range cs {
			if at, differ := a.DiffPersistent(b, c.Addr, c.Size); differ {
				return fmt.Errorf("journal differential: persistent images diverge at line %d (baseline position %d)",
					pmem.LineOf(at), pos)
			}
		}
	}
	return nil
}
