package crashinject

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"time"

	"hawkset/internal/apps"
	"hawkset/internal/apps/fastfair"
	"hawkset/internal/pmem"
	"hawkset/internal/pmrt"

	_ "hawkset/internal/apps/pmasstree"
)

func TestParseStrategy(t *testing.T) {
	for _, s := range Strategies() {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStrategy("everywhere"); err == nil {
		t.Fatalf("ParseStrategy accepted unknown name")
	}
}

func TestMergeAndSearchSpans(t *testing.T) {
	spans := mergeSpans([][2]int{{10, 20}, {5, 12}, {30, 31}, {20, 25}})
	want := [][2]int{{5, 25}, {30, 31}}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("mergeSpans = %v, want %v", spans, want)
	}
	for x, in := range map[int]bool{4: false, 5: true, 24: true, 25: false, 30: true, 31: false} {
		if got := inSpans(spans, x); got != in {
			t.Errorf("inSpans(%d) = %v, want %v", x, got, in)
		}
	}
}

// syntheticTarget builds a minimal journal: k (store, flush, fence)
// triples over one line.
func syntheticTarget(k int) *Target {
	var ops []pmem.Op
	for i := 0; i < k; i++ {
		ops = append(ops,
			pmem.Op{Kind: pmem.OpStore, Addr: 64, Size: 8, Data: []byte{byte(i), 0, 0, 0, 0, 0, 0, 0}, Seq: 3 * i},
			pmem.Op{Kind: pmem.OpFlush, Addr: 64, Seq: 3*i + 1},
			pmem.Op{Kind: pmem.OpFence, Seq: 3*i + 2},
		)
	}
	return &Target{Name: "synthetic", PoolSize: 1 << 12, Ops: ops}
}

func TestSamplePointsPrefersQuiescent(t *testing.T) {
	tg := syntheticTarget(40)
	// Positions divisible by 4 are quiescent: fewer than budget, so all of
	// them must be kept and the rest filled deterministically.
	tg.Quiescent = func(pos int) bool { return pos%4 == 0 }
	pts, err := enumerate(tg, AfterStore)
	if err != nil {
		t.Fatal(err)
	}
	sel := samplePoints(tg, pts, 20, 7)
	if len(sel) != 20 {
		t.Fatalf("sampled %d points, want 20", len(sel))
	}
	quiescent := 0
	for i, p := range sel {
		if i > 0 && sel[i-1] >= p {
			t.Fatalf("sample not ascending: %v", sel)
		}
		if p%4 == 0 {
			quiescent++
		}
	}
	wantQ := 0
	for _, p := range pts {
		if p%4 == 0 {
			wantQ++
		}
	}
	if quiescent != wantQ {
		t.Fatalf("sample kept %d quiescent points, want all %d", quiescent, wantQ)
	}
	if again := samplePoints(tg, pts, 20, 7); !reflect.DeepEqual(sel, again) {
		t.Fatalf("sampling not deterministic: %v vs %v", sel, again)
	}
	if other := samplePoints(tg, pts, 20, 8); reflect.DeepEqual(sel, other) {
		t.Fatalf("different seeds produced identical samples (suspicious)")
	}
}

func TestCampaignBudgetAccounting(t *testing.T) {
	tg := syntheticTarget(50)
	camp, err := RunCampaign(tg, Config{Strategy: AfterStore, Budget: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Enumerated != 50 || camp.Tested != 10 || camp.SkippedBudget != 40 {
		t.Fatalf("enumerated/tested/skipped = %d/%d/%d, want 50/10/40", camp.Enumerated, camp.Tested, camp.SkippedBudget)
	}
	if camp.Failed != 0 || camp.SkippedDeadline != 0 {
		t.Fatalf("unexpected failures or deadline skips: %+v", camp)
	}
}

func TestCampaignDeadlineSkipsExplicitly(t *testing.T) {
	tg := syntheticTarget(50)
	// An already-expired deadline: every sampled point must be accounted
	// for as a deadline skip, never silently dropped.
	camp, err := RunCampaign(tg, Config{Strategy: AfterStore, Budget: -1, Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Tested+camp.SkippedDeadline != camp.Enumerated || camp.SkippedDeadline == 0 {
		t.Fatalf("deadline accounting broken: %+v", camp)
	}
}

func TestTargetedStrategy(t *testing.T) {
	tg := syntheticTarget(10)                // Seqs 0..29
	tg.TargetedEventSpans = [][2]int{{6, 9}} // exactly the third triple
	camp, err := RunCampaign(tg, Config{Strategy: Targeted, Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Enumerated != 3 || camp.Tested != 3 {
		t.Fatalf("targeted enumerated/tested = %d/%d, want 3/3", camp.Enumerated, camp.Tested)
	}
	tg.TargetedEventSpans = nil
	if _, err := RunCampaign(tg, Config{Strategy: Targeted}); err == nil {
		t.Fatalf("targeted strategy without spans must error")
	}
}

// TestRecoveryPanicContained drives recovery code that panics outright on
// every image: the campaign must record each point inconsistent and keep
// going.
func TestRecoveryPanicContained(t *testing.T) {
	tg := syntheticTarget(5)
	tg.Recover = func(img *pmem.Pool, cfg Config) error {
		panic("recovery exploded")
	}
	camp, err := RunCampaign(tg, Config{Strategy: AfterFence, Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Tested != 5 || camp.Failed != 5 {
		t.Fatalf("tested/failed = %d/%d, want 5/5", camp.Tested, camp.Failed)
	}
	for _, p := range camp.Points {
		if p.Inconsistent == nil || !strings.Contains(p.Inconsistent.Panic, "recovery exploded") {
			t.Fatalf("point %d: want contained panic, got %+v", p.Pos, p.Inconsistent)
		}
	}
}

// TestRecoveryLivelockHitsStepBound runs recovery that loops forever under
// the instrumented runtime: the scheduler step bound must convert it into
// a deterministic hung verdict (the wall timeout never fires).
func TestRecoveryLivelockHitsStepBound(t *testing.T) {
	tg := syntheticTarget(3)
	tg.Recover = func(img *pmem.Pool, cfg Config) error {
		rrt := pmrt.NewWithPool(pmrt.Config{
			PoolSize: pmem.LineSize, MaxSteps: cfg.RecoverySteps, NoTrace: true,
		}, img, nil)
		return rrt.Run(func(c *pmrt.Ctx) {
			for {
				c.Load8(64) // chases a "next" pointer forever
			}
		})
	}
	camp, err := RunCampaign(tg, Config{Strategy: AfterFence, Budget: 2, RecoverySteps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Tested != 2 || camp.Failed != 2 {
		t.Fatalf("tested/failed = %d/%d, want 2/2", camp.Tested, camp.Failed)
	}
	for _, p := range camp.Points {
		if p.Inconsistent == nil || !p.Inconsistent.Hung {
			t.Fatalf("point %d: want hung verdict, got %+v", p.Pos, p.Inconsistent)
		}
	}
}

// TestRecoveryWallTimeout blocks recovery outside the scheduler: the wall
// timeout must fire, the verdict is hung, and the campaign abandons the
// scratch buffers but still finishes the remaining points.
func TestRecoveryWallTimeout(t *testing.T) {
	tg := syntheticTarget(3)
	hangs := 0
	tg.Recover = func(img *pmem.Pool, cfg Config) error {
		hangs++
		if hangs == 1 {
			select {} // blocks forever; the probe goroutine is abandoned
		}
		return nil
	}
	camp, err := RunCampaign(tg, Config{Strategy: AfterFence, Budget: -1, PointTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Tested != 3 || camp.Failed != 1 {
		t.Fatalf("tested/failed = %d/%d, want 3/1", camp.Tested, camp.Failed)
	}
	if p := camp.Points[0]; p.Inconsistent == nil || !p.Inconsistent.Hung {
		t.Fatalf("first point: want hung verdict, got %+v", p.Inconsistent)
	}
	for _, p := range camp.Points[1:] {
		if p.Inconsistent != nil {
			t.Fatalf("point %d after timeout: want consistent, got %+v", p.Pos, p.Inconsistent)
		}
	}
}

// TestTornImagePanicRegression hand-crafts a torn crash image: the
// recorded Fast-Fair journal is extended with a persisted store that aims
// the root pointer outside the device, then with a store restoring it. The
// application's recovery walk faults on the torn image; the harness must
// record the panic as an inconsistent verdict and continue to the repaired
// point, which must pass.
func TestTornImagePanicRegression(t *testing.T) {
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(e, 200, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	meta := p.App.(*fastfair.Tree).Meta()
	goodRoot := p.Runtime.Pool.Load8(meta)
	bogus := p.Runtime.Pool.Size() + (1 << 20)

	tg := p.Target(0)
	// Only the recovery path is under test here: the structural validators
	// would (correctly) also fault on the torn image and mask it.
	tg.PointCheck, tg.QuiescentCheck = nil, nil
	tg.Quiescent = nil // appended positions are beyond the recorded spans
	n := len(tg.Ops)
	le := func(v uint64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, v)
		return b
	}
	tg.Ops = append(tg.Ops,
		pmem.Op{Kind: pmem.OpStore, Addr: meta, Size: 8, Data: le(bogus), Seq: -1},
		pmem.Op{Kind: pmem.OpFlush, Addr: meta, Seq: -1},
		pmem.Op{Kind: pmem.OpFence, Seq: -1},
		pmem.Op{Kind: pmem.OpStore, Addr: meta, Size: 8, Data: le(goodRoot), Seq: -1},
		pmem.Op{Kind: pmem.OpFlush, Addr: meta, Seq: -1},
		pmem.Op{Kind: pmem.OpFence, Seq: -1},
	)
	tg.MinPos = n + 1

	camp, err := RunCampaign(tg, Config{Strategy: AfterFence, Budget: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Tested != 2 {
		t.Fatalf("tested %d points, want 2 (torn + repaired)", camp.Tested)
	}
	torn, repaired := camp.Points[0], camp.Points[1]
	if torn.Inconsistent == nil || torn.Inconsistent.Panic == "" {
		t.Fatalf("torn image: want panic verdict, got %+v", torn.Inconsistent)
	}
	if repaired.Inconsistent != nil {
		t.Fatalf("repaired image after panic: want consistent, got %+v", repaired.Inconsistent)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(e, 400, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Strategy: AfterFence, Budget: 16, Seed: 42}
	run := func() *Campaign {
		c, err := RunCampaign(p.Target(0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.ElapsedMS = 0
		return c
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different campaigns:\n%+v\nvs\n%+v", a, b)
	}
}

func TestDifferentialFastFair(t *testing.T) {
	runDifferential(t, "Fast-Fair", 2000)
}

func TestDifferentialPMasstree(t *testing.T) {
	runDifferential(t, "P-Masstree", 3000)
}

func runDifferential(t *testing.T, name string, ops int) {
	e, err := apps.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Differential(e, ops, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ok, problems := d.Holds()
	if !ok {
		t.Fatalf("differential does not hold for %s: %v\nbuggy: %+v\nfixed: tested=%d failed=%d failures=%v",
			name, problems, d.Buggy, d.Fixed.Tested, d.Fixed.Failed, d.Fixed.Failures())
	}
	for _, b := range d.Buggy {
		t.Logf("%s bug #%d: %d/%d failing of %d enumerated", name, b.ID, b.Failed, b.Tested, b.Enumerated)
	}
	t.Logf("%s fixed: %d tested, %d skipped by budget, 0 failed", name, d.Fixed.Tested, d.Fixed.SkippedBudget)
}

// TestFixedFenceSweepClean sweeps the fixed variant with the coarse fence
// strategy: every persistence boundary of a correct execution must yield a
// consistent, recoverable image.
func TestFixedFenceSweepClean(t *testing.T) {
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(e, 1000, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := RunCampaign(p.Target(0), Config{Strategy: AfterFence, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Failed != 0 {
		t.Fatalf("fixed fence sweep failed %d of %d points: %v", camp.Failed, camp.Tested, camp.Failures())
	}
	if camp.Tested == 0 {
		t.Fatalf("fence sweep tested no points")
	}
}
