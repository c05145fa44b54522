package hawkset

import (
	"runtime"
	"testing"

	"hawkset/internal/obs"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
	"hawkset/internal/vclock"
)

// TestClosedStoreRetentionBounded is the regression test for the streaming
// replay's unbounded closed-store retention. Two leak shapes existed:
//
//  1. Overwrite: store() compacted only the lines of the *overwriting*
//     store, so a closed multi-line store lingered (closed) in every line
//     outside the overlap.
//  2. Flush: flush() returned before compacting when every snapshot entry
//     was already closed — an all-closed line never enqueued a
//     pendingFlush, so fence's compaction never reached it either.
//
// Either way, a long-running Stream session over an overwrite- or
// flush-heavy workload grew r.lines (and the lists inside it) linearly with
// trace length even though every window was closed. The workload below
// exercises both shapes; pre-fix, len(r.lines) ends up ~2×iters.
func TestClosedStoreRetentionBounded(t *testing.T) {
	const iters = 200
	b := trace.NewBuilder()

	// Shape 1: a 128-byte store spans lines l0,l1; an 8-byte overwrite at
	// its base closes it via the shared line l0 only. The small store is
	// then persisted (flush l0 + fence), compacting l0 — pre-fix the closed
	// big store stays in l1 forever.
	for i := 0; i < iters; i++ {
		base := uint64(0x10000 + i*256) // 64-aligned, iterations 4 lines apart
		b.Store(1, base, 128, "big")
		b.Store(1, base, 8, "small")
		b.Persist(1, base, 8, "p")
	}

	// Shape 2: a 128-byte store is persisted through its first line only
	// (flush l0 + fence closes the whole window; fence compacts just l0).
	// The follow-up flush of l1 sees an all-closed list — pre-fix it
	// returned without sweeping, retaining the dead entry and the map key.
	for i := 0; i < iters; i++ {
		base := uint64(0x200000 + i*256)
		b.Store(1, base, 128, "big2")
		b.Flush(1, base, "f0")
		b.Fence(1, "fe0")
		b.Flush(1, base+64, "f1")
		b.Fence(1, "fe1")
	}

	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	s := NewStream(b.T.Sites, cfg)
	for e := range b.T.Events() {
		if err := s.Feed(e); err != nil {
			t.Fatalf("Feed: %v", err)
		}
	}

	// Every window above is closed, so nothing may be retained: the line
	// map must be empty (small slack for implementation drift, not growth).
	if got := s.rp.lines.len(); got > 2 {
		t.Fatalf("replayer retains %d cache-line entries after %d fully-closed iterations; closed stores are not being swept", got, 2*iters)
	}
	retained := 0
	for le := range s.rp.lines.all {
		retained += len(le.open)
	}
	if retained > 2 {
		t.Fatalf("replayer retains %d open-store entries, want ~0", retained)
	}

	// The observability layer must catch this class of bug: the open-store
	// gauge counts entries retained across line lists, so its high-water
	// mark stays at the per-iteration peak (3: big on two lines + small)
	// when sweeping works, and climbs toward 2×iters when it leaks.
	if hw := reg.Gauge("hawkset.replay.open_stores").Max(); hw > 4 {
		t.Fatalf("open_stores high-water = %d, want <= 4 (leak detector would have fired)", hw)
	}
	if hw := reg.Gauge("hawkset.replay.lines").Max(); hw > 4 {
		t.Fatalf("lines high-water = %d, want <= 4", hw)
	}

	// The stream still finishes cleanly and reports nothing for this
	// single-threaded, fully-persisted workload.
	res, err := s.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if res.Stats.UnpersistedAtEnd != 0 {
		t.Fatalf("UnpersistedAtEnd = %d, want 0", res.Stats.UnpersistedAtEnd)
	}
	if len(res.Reports) != 0 {
		t.Fatalf("reports = %d, want 0", len(res.Reports))
	}
}

// TestWindowRecordsBounded: replay holds a record per open window, not one
// per dynamic store. Of 102,400 stores, one in 256 goes to a line of its own
// and is never persisted; of the rest, half are persisted and half
// overwritten. The records allocated must stay within the open_stores
// high-water mark plus slack, and the window_records gauge must have seen
// each of them in use. A replayer that never reuses a record allocates one
// per store; one that handed records out of 256-entry blocks kept every
// block alive, since each held a store that was never persisted.
func TestWindowRecordsBounded(t *testing.T) {
	const n = 400 * 256
	var events []trace.Event
	for i := range uint64(n) {
		switch {
		case i%256 == 0:
			events = append(events, trace.Event{Kind: trace.KStore, TID: 1, Addr: 1<<20 + 64*i, Size: 8})
		case i%2 == 0:
			a := 0x1000 + 8*(i%8)
			events = append(events, trace.Event{Kind: trace.KStore, TID: 1, Addr: a, Size: 8},
				trace.Event{Kind: trace.KFlush, TID: 1, Addr: a}, trace.Event{Kind: trace.KFence, TID: 1})
		default:
			events = append(events, trace.Event{Kind: trace.KStore, TID: 1, Addr: 0x2000 + 8*(i%8), Size: 8})
		}
	}
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	s := NewStream(sites.NewTable(), cfg)
	for _, e := range events {
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkWindowRecords(s.rp); err != nil {
		t.Fatal(err)
	}
	hwm := reg.Gauge("hawkset.replay.open_stores").Max()
	if got := s.rp.allocated; int64(got) > hwm+16 {
		t.Fatalf("replay allocated %d window records for %d stores, want at most %d (open_stores high-water %d, plus 16)", got, n, hwm+16, hwm)
	}
	if got, want := reg.Gauge("hawkset.replay.window_records").Max(), int64(s.rp.allocated); got != want {
		t.Fatalf("window_records high-water %d, want the %d records allocated", got, want)
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.UnpersistedAtEnd; got != n/256+4 {
		t.Fatalf("%d stores unpersisted at the end, want %d", got, n/256+4)
	}
}

// TestZeroSizeStoreClosable: overlaps used to treat a zero-size access as
// an empty range while lastAddrOf/linesOf treat it as one byte. The
// asymmetry made a zero-size store indexable but un-overwritable: it sat in
// its line's open list until trace end and was recorded EndNone. With the
// one-byte convention unified, an overwrite of its byte closes it normally.
func TestZeroSizeStoreClosable(t *testing.T) {
	b := trace.NewBuilder()
	b.Store(1, 0x100, 0, "zero")
	b.Store(1, 0x100, 8, "over") // overwrites the zero-size store's byte
	b.Persist(1, 0x100, 8, "p")

	res := Analyze(b.T, cfgNoIRH())
	var zero *StoreData
	for i := range res.Stores {
		if res.Stores[i].Size == 0 {
			zero = &res.Stores[i]
		}
	}
	if zero == nil {
		t.Fatal("zero-size store record missing")
	}
	if zero.EndKind != EndOverwrite {
		t.Fatalf("zero-size store EndKind = %v, want %v (overwrite must close it)", zero.EndKind, EndOverwrite)
	}
	if res.Stats.UnpersistedAtEnd != 0 {
		t.Fatalf("UnpersistedAtEnd = %d, want 0: the zero-size store was pinned open", res.Stats.UnpersistedAtEnd)
	}
}

// TestHugeTIDBounded: replay memory follows the number of threads, not the
// largest TID. Clocks indexed by raw TID made one store at TID 1<<24 grow
// 64 MiB vector clocks, 439 MiB in all; a TID near MaxInt32 exhausted memory.
func TestHugeTIDBounded(t *testing.T) {
	b := trace.NewBuilder()
	b.Store(1<<24, 0x100, 8, "store")
	b.Load(0, 0x100, 8, "load")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := Analyze(b.T, DefaultConfig())
	runtime.ReadMemStats(&after)
	if len(res.Reports) != 1 || res.Reports[0].StoreTID != 1<<24 || res.Reports[0].LoadTID != 0 {
		t.Fatalf("reports = %v, want the T%d vs T0 race", res.Reports, 1<<24)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("analysis allocated %d bytes, want < 1 MiB", got)
	}
}

// TestReusedTIDKeepsIndex: a re-created TID keeps its dense index, so a
// trace that recycles one TID keeps clocks as wide as its distinct TIDs.
func TestReusedTIDKeepsIndex(t *testing.T) {
	b := trace.NewBuilder()
	for range 100 {
		b.Create(0, 1, "create")
		b.Store(1, 0x100, 8, "store")
		b.Join(0, 1, "join")
	}
	res := Analyze(b.T, DefaultConfig())
	for id := range res.VClocks.Len() {
		if n := len(res.VClocks.Get(vclock.ID(id))); n > 2 {
			t.Fatalf("clock %d has %d components, want at most 2 (TIDs 0 and 1)", id, n)
		}
	}
}

// TestLiveTIDReuseKeepsRace: re-creating a live TID gives two incarnations
// one clock component, so the one-component epoch compare stops being
// exact and the clock table must fall back to full walks. T2, created by the
// first T1, stores X and never persists it; the second T1, created later by
// T0, loads X. Nothing orders the two, so the pair races. The second T1's
// load clock (3,1) carries tick 1 on the shared component, and the store
// clock (2,2,1) carries 2 there: the stale epoch compare would prune the
// load as happening before the store.
func TestLiveTIDReuseKeepsRace(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Create(0, 1, "t0.create.first")
	b.Create(1, 2, "t1.create")
	b.Store(2, X, 8, "t2.store")
	b.Create(0, 1, "t0.create.again")
	b.Load(1, X, 8, "t1.load")

	res := Analyze(b.T, DefaultConfig())
	if !hasReport(res, "t2.store", "t1.load") {
		t.Fatalf("race across a re-created TID pruned; reports = %v", reportStrings(res))
	}
}
