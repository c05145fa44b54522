package hawkset

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hawkset/internal/pmem"
	"hawkset/internal/pmrt"
	"hawkset/internal/trace"
)

// TestStoreStoreReportNotAliasedIntoStoreLoad: a call site that both loads
// and stores (e.g. ctx.Store(dst, ctx.Load(src)) on one line) produces
// store-load and store-store pairs over the same (site, site) key. The two
// must stay separate reports — the write-write pair used to merge silently
// into the store-load report, dropping its StoreStore flag and inflating
// Pairs/Weight.
func TestStoreStoreReportNotAliasedIntoStoreLoad(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2").Create(0, 3, "c3")
	b.Store(1, X, 8, "kv.put") // racing store #1
	b.Store(2, X, 8, "kv.put") // racing store #2 (same site!)
	b.Load(3, X, 8, "kv.put")  // racing load, also same site
	b.Join(0, 1, "j").Join(0, 2, "j").Join(0, 3, "j")

	cfg := cfgNoIRH()
	cfg.StoreStore = true
	res := Analyze(b.T, cfg)

	if len(res.Reports) != 2 {
		t.Fatalf("reports = %d (%v), want 2 (store-load + store-store)", len(res.Reports), res.Reports)
	}
	var sl, ss *Report
	for i := range res.Reports {
		if res.Reports[i].StoreStore {
			ss = &res.Reports[i]
		} else {
			sl = &res.Reports[i]
		}
	}
	if sl == nil || ss == nil {
		t.Fatalf("want one store-load and one store-store report, got %+v", res.Reports)
	}
	// Both stores pair with the load; the write-write pair is exactly one.
	if sl.Pairs != 2 {
		t.Errorf("store-load Pairs = %d, want 2", sl.Pairs)
	}
	if ss.Pairs != 1 {
		t.Errorf("store-store Pairs = %d, want 1", ss.Pairs)
	}
}

// TestEndKindDowngradeUpdatesExample: when a later pair downgrades a
// report's EndKind to a non-persist kind, the example fields (Addr,
// StoreTID, LoadTID) must move with it — otherwise the rendered report
// claims the first (persisted) pair's location with the later pair's end
// kind, pointing the developer at the wrong access.
func TestEndKindDowngradeUpdatesExample(t *testing.T) {
	const X, Y = 0x100, 0x1000 // distinct cache lines, X's bucket first
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2").Create(0, 3, "c3").Create(0, 4, "c4")
	// Pair 1: persisted store, lock-free concurrent load (benign shape).
	b.Store(1, X, 8, "st")
	b.Persist(1, X, 8, "p")
	b.Load(2, X, 8, "ld")
	// Pair 2, same site pair: never-persisted store at another address.
	b.Store(3, Y, 8, "st")
	b.Load(4, Y, 8, "ld")
	b.Join(0, 1, "j").Join(0, 2, "j").Join(0, 3, "j").Join(0, 4, "j")

	res := Analyze(b.T, cfgNoIRH())
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %v, want one merged (st, ld) report", reportStrings(res))
	}
	rep := res.Reports[0]
	if rep.EndKind != EndNone || !rep.Unpersisted {
		t.Fatalf("EndKind = %v, Unpersisted = %v; want downgrade to %v", rep.EndKind, rep.Unpersisted, EndNone)
	}
	if rep.Addr != Y || rep.StoreTID != 3 || rep.LoadTID != 4 {
		t.Errorf("example = addr %#x T%d/T%d, want the unpersisted pair addr %#x T3/T4",
			rep.Addr, rep.StoreTID, rep.LoadTID, uint64(Y))
	}
}

// TestOverlapsAtAddressSpaceTop: the addition form aAddr < bAddr+bSize
// wraps for ranges ending at ^uint64(0) and reported genuine overlaps as
// misses.
func TestOverlapsAtAddressSpaceTop(t *testing.T) {
	top := ^uint64(0)
	cases := []struct {
		a    uint64
		as   uint32
		b    uint64
		bs   uint32
		want bool
	}{
		{top - 7, 8, top - 3, 4, true},   // [top-7,top] ∩ [top-3,top]
		{top - 3, 4, top - 7, 8, true},   // symmetric
		{top - 7, 8, top - 7, 8, true},   // identical ranges at the top
		{top - 15, 8, top - 7, 8, false}, // adjacent, no shared byte
		{0, 8, top - 7, 8, false},        // opposite ends
		{top, 1, top, 1, true},           // single last byte
		{0x100, 8, 0x104, 8, true},       // ordinary overlap still works
		{0x100, 8, 0x108, 8, false},      // ordinary adjacency still works
		// Zero-size accesses read as one byte — the same convention
		// lastAddrOf and linesOf use. (overlaps used to treat size 0 as an
		// empty range, so a zero-size store was indexed under a line but
		// never closable by an overwrite: it pinned an EndNone record.)
		{0x100, 0, 0x100, 8, true},  // zero-size = 1 byte at addr
		{0x100, 0, 0x101, 8, false}, // ...and only that byte
		{0x100, 0, 0x100, 0, true},  // two zero-size at same addr share it
		{0x107, 0, 0x100, 8, true},  // last byte of the range
		{0x108, 0, 0x100, 8, false}, // one past the range
		{top, 0, top, 1, true},      // zero-size at the very top, no wrap
		{top, 0, top, 0, true},      // both zero-size at the top
		{top, 0, top - 7, 8, true},  // inside a range ending at top
		{0, 0, top, 1, false},       // opposite ends, zero-size side
	}
	for _, c := range cases {
		if got := overlaps(c.a, c.as, c.b, c.bs); got != c.want {
			t.Errorf("overlaps(%#x,%d, %#x,%d) = %v, want %v", c.a, c.as, c.b, c.bs, got, c.want)
		}
	}
}

// TestLinesOfAtAddressSpaceTop: addr+size-1 used to wrap past the top of
// the address space, making the line loop iterate zero times and silently
// dropping the record from every bucket.
func TestLinesOfAtAddressSpaceTop(t *testing.T) {
	top := ^uint64(0)
	collect := func(addr uint64, size uint32) []uint64 {
		var lines []uint64
		linesOf(addr, size, func(l uint64) { lines = append(lines, l) })
		return lines
	}
	// A range that would wrap is clamped to the last line.
	if got := collect(top-3, 8); len(got) != 1 || got[0] != pmem.LineOf(top) {
		t.Errorf("linesOf(top-3, 8) = %v, want [%d]", got, pmem.LineOf(top))
	}
	if got := collect(top, 1); len(got) != 1 || got[0] != pmem.LineOf(top) {
		t.Errorf("linesOf(top, 1) = %v, want [%d]", got, pmem.LineOf(top))
	}
	// A non-wrapping range over the last two lines still spans both.
	if got := collect(top-65, 8); len(got) != 2 || got[1] != pmem.LineOf(top) {
		t.Errorf("linesOf(top-65, 8) = %v, want the last two lines", got)
	}

	if spansLines(top, 8) {
		t.Error("spansLines(top, 8) = true; the clamped range stays in the last line")
	}
	if !spansLines(top-65, 8) {
		t.Error("spansLines(top-65, 8) = false, want true")
	}
	if spansLines(0x100, 8) || !spansLines(0x13c, 8) {
		t.Error("spansLines changed behavior for ordinary ranges")
	}
}

// TestRaceAtAddressSpaceTopDetected: end-to-end version of the wrap bugs —
// a store and an overlapping load in the address space's last cache line
// must still be paired and reported.
func TestRaceAtAddressSpaceTopDetected(t *testing.T) {
	top := ^uint64(0)
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Store(1, top-7, 8, "t1.store") // [top-7, top]
	b.Load(2, top-3, 4, "t2.load")   // [top-3, top]
	b.Join(0, 1, "j").Join(0, 2, "j")

	res := Analyze(b.T, cfgNoIRH())
	if !hasReport(res, "t1.store", "t2.load") {
		t.Fatalf("overlap at the top of the address space missed; reports = %v", reportStrings(res))
	}
}

// assertWorkersAgree analyzes the trace on one shard (GOMAXPROCS=1) and on
// several shard counts, requiring byte-identical reports (content and order)
// and identical merged stats.
func assertWorkersAgree(t *testing.T, name string, tr *trace.Trace, cfg Config) {
	t.Helper()
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	want := Analyze(tr, cfg)
	for _, n := range []int{2, 7, procs} {
		runtime.GOMAXPROCS(n)
		got := Analyze(tr, cfg)
		if !reflect.DeepEqual(want.Reports, got.Reports) {
			t.Errorf("%s: GOMAXPROCS=%d reports differ from sequential:\nseq: %+v\npar: %+v",
				name, n, want.Reports, got.Reports)
		}
		if want.Stats != got.Stats {
			t.Errorf("%s: GOMAXPROCS=%d stats differ:\nseq: %+v\npar: %+v", name, n, want.Stats, got.Stats)
		}
	}
}

// TestParallelDifferentialQuickstart: the quickstart (Figure 1c) program,
// captured through the instrumented runtime, analyzes identically for every
// worker count.
func TestParallelDifferentialQuickstart(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1, PoolSize: 1 << 20})
	mu := rt.NewMutex("A")
	err := rt.Run(func(c *pmrt.Ctx) {
		x := c.Alloc(8)
		t1 := c.Spawn(func(c *pmrt.Ctx) {
			c.Lock(mu)
			c.Store8(x, 42)
			c.Unlock(mu)
			c.Persist(x, 8)
		})
		t2 := c.Spawn(func(c *pmrt.Ctx) {
			c.Lock(mu)
			_ = c.Load8(x)
			c.Unlock(mu)
		})
		c.Join(t1)
		c.Join(t2)
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.IRH = false
	assertWorkersAgree(t, "quickstart", rt.Trace, cfg)
}

// TestParallelDifferentialSpanningStores: stores and loads spanning cache
// lines land in several buckets; wherever a shard boundary falls between
// two buckets sharing a record, the pair must still be counted exactly once
// and reported identically.
func TestParallelDifferentialSpanningStores(t *testing.T) {
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2").Create(0, 3, "c3")
	base := uint64(0x100)
	for i := uint64(0); i < 24; i++ {
		addr := base + i*64 + 60 // 8-byte access spanning lines i and i+1
		b.Store(1, addr, 8, "t1.store")
		b.Load(2, addr+4, 8, "t2.load")
		b.Store(3, addr, 8, "t3.store")
	}
	b.Join(0, 1, "j").Join(0, 2, "j").Join(0, 3, "j")

	cfg := cfgNoIRH()
	assertWorkersAgree(t, "spanning", b.T, cfg)
	cfg.StoreStore = true
	assertWorkersAgree(t, "spanning+store-store", b.T, cfg)
}

// TestParallelDifferentialRandomTraces fuzzes worker-count equivalence over
// random well-formed traces, with and without store-store checking.
func TestParallelDifferentialRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tr := randTrace(rand.New(rand.NewSource(seed)))
		assertWorkersAgree(t, "rand/default", tr, DefaultConfig())
		cfg := cfgNoIRH()
		cfg.StoreStore = true
		assertWorkersAgree(t, "rand/store-store", tr, cfg)
	}
}
