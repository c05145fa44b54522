package pmopt

// Apply: elide a candidate site set and prove it safe. The elision itself
// is pmrt's yield-preserving ElideSites hook (scheduling unchanged, device
// ops suppressed); safety is established by four independent gates over the
// re-recorded execution:
//
//  1. the HawkSet race report must be byte-identical — eliminating
//     redundant persistence work must not create, destroy or move any
//     unpersisted-window race;
//  2. a full crash-injection sweep (every strategy) over the elided journal
//     must report zero failing crash points;
//  3. the device-op counters must actually drop — an "optimization" that
//     removes nothing is reported as a failure, not silently accepted;
//  4. a journal-aligned image differential: because elision is
//     yield-preserving, the elided journal must equal the baseline journal
//     minus the elided sites' ops in identical order, and the persistent
//     image must agree at every aligned position — i.e. a crash anywhere
//     yields the same recoverable image with or without the elision.
//
// Gate 4 subsumes most of gate 2 in theory (same images → same recovery
// verdicts), but the sweep exercises the real recovery code against the
// elided journal's own coordinates, so both are kept.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"hawkset/internal/apps"
	"hawkset/internal/crashinject"
	"hawkset/internal/obs"
	"hawkset/internal/pmem"
	"hawkset/internal/report"
	"hawkset/internal/sites"
)

// ApplyResult records the before/after measurement and every gate verdict.
type ApplyResult struct {
	App   string   `json:"app"`
	Sites []string `json:"sites"`
	// Device-op counts from the obs registries of the two recordings.
	BaselineFlushes uint64 `json:"baseline_flushes"`
	BaselineFences  uint64 `json:"baseline_fences"`
	OptFlushes      uint64 `json:"opt_flushes"`
	OptFences       uint64 `json:"opt_fences"`
	ElidedOps       uint64 `json:"elided_ops"`
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

// Apply re-records the application's fixed variant with the given sites
// elided and runs the safety gates. siteKeys must be module-relative
// "file.go:line" keys (AnalyzeApp's Eliminable set). sweep configures the
// crash-injection campaigns (Strategy is overridden; Budget/Deadline/Seed
// are honored).
func Apply(e *apps.Entry, opCount int, seed int64, siteKeys []string, sweep crashinject.Config) (*ApplyResult, error) {
	if len(siteKeys) == 0 {
		return nil, fmt.Errorf("pmopt: no sites to apply for %s", e.Name)
	}
	elide := make(map[string]bool, len(siteKeys))
	for _, k := range siteKeys {
		elide[k] = true
	}

	regBase, regOpt := obs.NewRegistry(), obs.NewRegistry()
	base, err := crashinject.PrepareWith(e, opCount, seed, true, crashinject.PrepOptions{Metrics: regBase})
	if err != nil {
		return nil, err
	}
	opt, err := crashinject.PrepareWith(e, opCount, seed, true, crashinject.PrepOptions{Metrics: regOpt, ElideSites: elide})
	if err != nil {
		return nil, err
	}

	sb, so := regBase.Snapshot(), regOpt.Snapshot()
	res := &ApplyResult{
		App: e.Name, Sites: siteKeys,
		BaselineFlushes: sb.Counter("device_flush"),
		BaselineFences:  sb.Counter("device_fence"),
		OptFlushes:      so.Counter("device_flush"),
		OptFences:       so.Counter("device_fence"),
		ElidedOps:       so.Counter("pmrt.elided"),
	}

	// Gate 3: the elimination must remove real device work.
	if res.OptFlushes+res.OptFences >= res.BaselineFlushes+res.BaselineFences {
		res.Problems = append(res.Problems, fmt.Sprintf(
			"no device-op reduction: %d flushes + %d fences before, %d + %d after",
			res.BaselineFlushes, res.BaselineFences, res.OptFlushes, res.OptFences))
	}

	// Gate 4: journal-aligned persistent-image differential.
	if err := journalDiff(base, opt, elide); err != nil {
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

// shadowDev is a minimal replica of pmem's worst-case device (store →
// volatile, flush → line snapshot pending, fence → commit) that reports,
// per fence, which lines it committed — so the differential compares only
// bytes that could have moved.
type shadowDev struct {
	vol, per []byte
	pending  map[int32][]pendEntry
}

func newShadowDev(size uint64) *shadowDev {
	return &shadowDev{vol: make([]byte, size), per: make([]byte, size), pending: make(map[int32][]pendEntry)}
}

func (s *shadowDev) apply(op pmem.Op) map[uint64]bool {
	switch op.Kind {
	case pmem.OpStore, pmem.OpNTStore:
		data := op.Data
		if data == nil {
			data = make([]byte, op.Size)
		}
		copy(s.vol[op.Addr:], data)
		if op.Kind == pmem.OpNTStore && len(data) > 0 {
			snap := append([]byte(nil), data...)
			s.pending[op.TID] = append(s.pending[op.TID], pendEntry{nt: true, addr: op.Addr, data: snap})
		}
	case pmem.OpFlush:
		base := pmem.LineOf(op.Addr) * pmem.LineSize
		end := base + pmem.LineSize
		if end > uint64(len(s.vol)) {
			end = uint64(len(s.vol))
		}
		snap := append([]byte(nil), s.vol[base:end]...)
		s.pending[op.TID] = append(s.pending[op.TID], pendEntry{addr: base, data: snap})
	case pmem.OpFence:
		batch := s.pending[op.TID]
		delete(s.pending, op.TID)
		if len(batch) == 0 {
			return nil
		}
		touched := make(map[uint64]bool)
		for _, e := range batch {
			copy(s.per[e.addr:], e.data)
			last := pmem.LineOf(pmem.LastByte(e.addr, uint64(len(e.data))))
			for l := pmem.LineOf(e.addr); l <= last; l++ {
				touched[l] = true
			}
		}
		return touched
	}
	return nil
}

// journalDiff verifies the yield-preservation contract between the two
// recordings: the elided journal is exactly the baseline journal minus
// flush/fence ops from elided sites, and at every aligned position the two
// persistent images agree (volatile too — checked once at the end, since
// stores are never elided).
func journalDiff(base, opt *crashinject.Prep, elide map[string]bool) error {
	size := base.Runtime.Pool.Size()
	if s := opt.Runtime.Pool.Size(); s != size {
		return fmt.Errorf("journal differential: pool sizes differ (%d vs %d)", size, s)
	}
	tab := base.Runtime.Trace.Sites
	keyOf := func(i int) string {
		fr := tab.Lookup(base.Runtime.OpSites[i])
		if fr.File == "" {
			return ""
		}
		return fmt.Sprintf("%s:%d", sites.ModuleRel(fr.File), fr.Line)
	}

	bs, os := newShadowDev(size), newShadowDev(size)
	eops := opt.Runtime.Ops
	ei := 0
	for bi, op := range base.Runtime.Ops {
		if (op.Kind == pmem.OpFlush || op.Kind == pmem.OpFence) && elide[keyOf(bi)] {
			// Baseline-only op: apply it to the baseline shadow alone. If it
			// committed anything the images diverge right here.
			if touched := bs.apply(op); touched != nil {
				if err := comparePer(bs, os, touched, bi); err != nil {
					return err
				}
			}
			continue
		}
		if ei >= len(eops) {
			return fmt.Errorf("journal differential: elided journal ends %d op(s) early", len(base.Runtime.Ops)-bi)
		}
		eop := eops[ei]
		if op.Kind != eop.Kind || op.TID != eop.TID || op.Addr != eop.Addr ||
			op.Size != eop.Size || !bytes.Equal(op.Data, eop.Data) {
			return fmt.Errorf("journal differential: op misalignment at baseline %d / elided %d (%s vs %s)",
				bi, ei, op.Kind, eop.Kind)
		}
		t1 := bs.apply(op)
		t2 := os.apply(eop)
		for l := range t2 {
			if t1 == nil {
				t1 = t2
				break
			}
			t1[l] = true
		}
		if t1 != nil {
			if err := comparePer(bs, os, t1, bi); err != nil {
				return err
			}
		}
		ei++
	}
	if ei != len(eops) {
		return fmt.Errorf("journal differential: elided journal has %d unexpected trailing op(s)", len(eops)-ei)
	}
	if !bytes.Equal(bs.per, os.per) {
		return fmt.Errorf("journal differential: final persistent images differ")
	}
	if !bytes.Equal(bs.vol, os.vol) {
		return fmt.Errorf("journal differential: final volatile images differ")
	}
	return nil
}

// comparePer checks the two shadows' persistent views on the given lines.
func comparePer(a, b *shadowDev, lines map[uint64]bool, pos int) error {
	size := uint64(len(a.per))
	for l := range lines {
		base := l * pmem.LineSize
		end := base + pmem.LineSize
		if end > size {
			end = size
		}
		if !bytes.Equal(a.per[base:end], b.per[base:end]) {
			return fmt.Errorf("journal differential: persistent images diverge at line %d (baseline position %d)", l, pos)
		}
	}
	return nil
}
