package hawkset

import (
	"testing"

	"hawkset/internal/trace"
)

// reportStrings renders reports as "storeSite/loadSite" for compact
// assertions.
func reportStrings(res *Result) []string {
	var out []string
	for _, r := range res.Reports {
		out = append(out, r.StoreFrame.String()+"/"+r.LoadFrame.String())
	}
	return out
}

func hasReport(res *Result, store, load string) bool {
	for _, r := range res.Reports {
		if r.StoreFrame.String() == store && r.LoadFrame.String() == load {
			return true
		}
	}
	return false
}

// cfgNoIRH is the default configuration with the IRH off: most synthetic
// traces in these tests touch an address from a second thread only once, so
// publication-based filtering would hide what the test examines. IRH gets
// dedicated tests below.
func cfgNoIRH() Config {
	c := DefaultConfig()
	c.IRH = false
	return c
}

// TestFigure1c is the paper's motivating example: both threads access X
// under lock A, but T1's persistency happens outside the critical section.
// Traditional lockset analysis sees a common lock and stays silent; the
// effective lockset is empty and HawkSet reports the race.
func TestFigure1c(t *testing.T) {
	const X, A = 0x100, 1
	b := trace.NewBuilder()
	b.Create(0, 1, "main.create1").Create(0, 2, "main.create2")
	// T1: lock; store X; unlock; persist X (outside the critical section).
	b.Lock(1, A, "t1.lock")
	b.Store(1, X, 8, "t1.store")
	b.Unlock(1, A, "t1.unlock")
	b.Persist(1, X, 8, "t1.persist")
	// T2: lock; load X; unlock.
	b.Lock(2, A, "t2.lock")
	b.Load(2, X, 8, "t2.load")
	b.Unlock(2, A, "t2.unlock")
	b.Join(0, 1, "main.join").Join(0, 2, "main.join")

	res := Analyze(b.T, cfgNoIRH())
	if !hasReport(res, "t1.store", "t2.load") {
		t.Fatalf("Figure 1c race not reported; reports = %v", reportStrings(res))
	}
}

// TestFigure1cTraditionalMisses shows the ablation: with the effective
// lockset disabled the store keeps lockset {A}, intersects the load's {A},
// and the race is missed — the exact failure of traditional lockset
// analysis the paper describes in §3.1.1.
func TestFigure1cTraditionalMisses(t *testing.T) {
	const X, A = 0x100, 1
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Lock(1, A, "t1.lock").Store(1, X, 8, "t1.store").Unlock(1, A, "t1.unlock").Persist(1, X, 8, "t1.persist")
	b.Lock(2, A, "t2.lock").Load(2, X, 8, "t2.load").Unlock(2, A, "t2.unlock")
	b.Join(0, 1, "j").Join(0, 2, "j")

	cfg := cfgNoIRH()
	cfg.EffectiveLockset = false
	res := Analyze(b.T, cfg)
	if hasReport(res, "t1.store", "t2.load") {
		t.Fatal("traditional lockset analysis should miss Figure 1c")
	}
}

// TestCorrectProgramNoReport: store and persist inside the same critical
// section; the loader holds the same lock. No race.
func TestCorrectProgramNoReport(t *testing.T) {
	const X, A = 0x100, 1
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Lock(1, A, "t1.lock")
	b.Store(1, X, 8, "t1.store")
	b.Persist(1, X, 8, "t1.persist")
	b.Unlock(1, A, "t1.unlock")
	b.Lock(2, A, "t2.lock")
	b.Load(2, X, 8, "t2.load")
	b.Unlock(2, A, "t2.unlock")
	b.Join(0, 1, "j").Join(0, 2, "j")

	res := Analyze(b.T, cfgNoIRH())
	if len(res.Reports) != 0 {
		t.Fatalf("correct program produced reports: %v", reportStrings(res))
	}
}

// TestFigure2d: lock A protects both the store and the persistency, but A is
// released and reacquired in between, so the two belong to different atomic
// sections: the timestamped effective lockset is empty and the race is
// reported.
func TestFigure2d(t *testing.T) {
	const X, A = 0x100, 1
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Lock(1, A, "t1.lock1")
	b.Store(1, X, 8, "t1.store")
	b.Unlock(1, A, "t1.unlock1")
	b.Lock(1, A, "t1.lock2") // reacquire: new timestamp
	b.Persist(1, X, 8, "t1.persist")
	b.Unlock(1, A, "t1.unlock2")
	b.Lock(2, A, "t2.lock")
	b.Load(2, X, 8, "t2.load")
	b.Unlock(2, A, "t2.unlock")
	b.Join(0, 1, "j").Join(0, 2, "j")

	res := Analyze(b.T, cfgNoIRH())
	if !hasReport(res, "t1.store", "t2.load") {
		t.Fatalf("Figure 2d release/reacquire race not reported; reports = %v", reportStrings(res))
	}

	// Ablation: without timestamps the reacquired lock looks continuous and
	// the race is missed.
	cfg := cfgNoIRH()
	cfg.Timestamps = false
	res = Analyze(b.T, cfg)
	if hasReport(res, "t1.store", "t2.load") {
		t.Fatal("timestamp-free analysis should miss the release/reacquire race")
	}
}

// TestFigure3 reproduces the happens-before example: T1's store+persist to X
// before creating T2 and T3 can never race with their loads, but a store
// whose persist happens after a thread's creation can race with that
// thread's load.
func TestFigure3(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	// T1: store X, persist X, create T2 (no race with T2's load).
	b.Store(1, X, 8, "t1.store1")
	b.Persist(1, X, 8, "t1.persist1")
	b.Create(1, 2, "t1.create2")
	// T1: store X again, create T3, persist X after the creation.
	b.Store(1, X, 8, "t1.store3")
	b.Create(1, 3, "t1.create3")
	b.Persist(1, X, 8, "t1.persist3")
	// T2 and T3 load X with no locks.
	b.Load(2, X, 8, "t2.load")
	b.Load(3, X, 8, "t3.load")
	b.Join(1, 2, "t1.join2")
	b.Join(1, 3, "t1.join3")

	res := Analyze(b.T, cfgNoIRH())
	if hasReport(res, "t1.store1", "t2.load") || hasReport(res, "t1.store1", "t3.load") {
		t.Fatalf("store1 happens-before both loads, must not be reported; reports = %v", reportStrings(res))
	}
	// store3's window is still open when T3 is created: T3's load can fall
	// inside it (the Persist₃ vector-clock point of §3.1.2).
	if !hasReport(res, "t1.store3", "t3.load") {
		t.Fatalf("store3/t3.load race not reported; reports = %v", reportStrings(res))
	}
	// T2 was created before store3, so it is concurrent with the window too.
	if !hasReport(res, "t1.store3", "t2.load") {
		t.Fatalf("store3/t2.load race not reported; reports = %v", reportStrings(res))
	}

	// Ablation: with the HB filter off, store1 is (wrongly) reported — the
	// false positive the vector clocks eliminate.
	cfg := cfgNoIRH()
	cfg.HBFilter = false
	res = Analyze(b.T, cfg)
	if !hasReport(res, "t1.store1", "t2.load") {
		t.Fatal("HB-filter-off ablation should report the ordered pair")
	}
}

// TestJoinOrdersAccesses: after joining a worker, the parent's loads cannot
// race with the worker's persisted stores.
func TestJoinOrdersAccesses(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Create(0, 1, "create")
	b.Store(1, X, 8, "t1.store")
	b.Persist(1, X, 8, "t1.persist")
	b.Join(0, 1, "join")
	b.Load(0, X, 8, "main.load")

	res := Analyze(b.T, cfgNoIRH())
	if len(res.Reports) != 0 {
		t.Fatalf("joined accesses reported racy: %v", reportStrings(res))
	}
}

// TestUnpersistedStoreAlwaysRaces: a store that is never flushed races with
// any concurrent load, even one holding the same lock — the value can be
// lost at any time (missing-persist bugs like TurboHash #3).
func TestUnpersistedStoreAlwaysRaces(t *testing.T) {
	const X, A = 0x100, 1
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Lock(1, A, "t1.lock").Store(1, X, 8, "t1.store").Unlock(1, A, "t1.unlock")
	b.Lock(2, A, "t2.lock").Load(2, X, 8, "t2.load").Unlock(2, A, "t2.unlock")
	b.Join(0, 1, "j").Join(0, 2, "j")

	res := Analyze(b.T, cfgNoIRH())
	if !hasReport(res, "t1.store", "t2.load") {
		t.Fatalf("never-persisted store not reported; reports = %v", reportStrings(res))
	}
	if res.Stats.UnpersistedAtEnd != 1 {
		t.Fatalf("UnpersistedAtEnd = %d, want 1", res.Stats.UnpersistedAtEnd)
	}
}

// TestOverwriteEndsWindow: within one critical section, an overwritten store
// is protected by the section's lockset; a later load under the same lock is
// safe with respect to the first store.
func TestOverwriteEndsWindow(t *testing.T) {
	const X, A = 0x100, 1
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Lock(1, A, "t1.lock")
	b.Store(1, X, 8, "t1.store1")
	b.Store(1, X, 8, "t1.store2") // overwrite: ends store1's window
	b.Persist(1, X, 8, "t1.persist")
	b.Unlock(1, A, "t1.unlock")
	b.Lock(2, A, "t2.lock")
	b.Load(2, X, 8, "t2.load")
	b.Unlock(2, A, "t2.unlock")
	b.Join(0, 1, "j").Join(0, 2, "j")

	res := Analyze(b.T, cfgNoIRH())
	if len(res.Reports) != 0 {
		t.Fatalf("overwritten-then-persisted store reported: %v", reportStrings(res))
	}
}

// TestCrossThreadOverwrite pins the semantics of a window ended by another
// thread's store: the effective lockset is the lock-identity intersection of
// the store's and the overwriter's locksets — the direct reading of the
// paper's definition ("intersection between the lockset of the store with
// the lockset of its ... overwrite via store"), with the timestamp
// refinement inapplicable across threads. A loader holding the common lock
// is therefore treated as protected; one holding no lock is reported.
func TestCrossThreadOverwrite(t *testing.T) {
	const X, A = 0x100, 1
	build := func(loadLocked bool) *trace.Trace {
		b := trace.NewBuilder()
		b.Create(0, 1, "c1").Create(0, 2, "c2").Create(0, 3, "c3")
		b.Lock(1, A, "t1.lock").Store(1, X, 8, "t1.store").Unlock(1, A, "t1.unlock")
		if loadLocked {
			b.Lock(3, A, "t3.lock")
		}
		b.Load(3, X, 8, "t3.load")
		if loadLocked {
			b.Unlock(3, A, "t3.unlock")
		}
		b.Lock(2, A, "t2.lock").Store(2, X, 8, "t2.store").Persist(2, X, 8, "t2.persist").Unlock(2, A, "t2.unlock")
		b.Join(0, 1, "j").Join(0, 2, "j").Join(0, 3, "j")
		return b.T
	}
	res := Analyze(build(true), cfgNoIRH())
	if hasReport(res, "t1.store", "t3.load") {
		t.Fatalf("locked loader reported despite common lock in both window endpoints: %v", reportStrings(res))
	}
	res = Analyze(build(false), cfgNoIRH())
	if !hasReport(res, "t1.store", "t3.load") {
		t.Fatalf("lock-free loader of cross-thread-overwritten store not reported: %v", reportStrings(res))
	}
}

// TestNTStoreWithFenceIsSafe: a non-temporal store followed by a fence in
// the same critical section is persisted; no race.
func TestNTStoreWithFenceIsSafe(t *testing.T) {
	const X, A = 0x100, 1
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Lock(1, A, "t1.lock")
	b.NTStore(1, X, 8, "t1.nt")
	b.Fence(1, "t1.fence")
	b.Unlock(1, A, "t1.unlock")
	b.Lock(2, A, "t2.lock").Load(2, X, 8, "t2.load").Unlock(2, A, "t2.unlock")
	b.Join(0, 1, "j").Join(0, 2, "j")

	res := Analyze(b.T, cfgNoIRH())
	if len(res.Reports) != 0 {
		t.Fatalf("nt-store+fence reported racy: %v", reportStrings(res))
	}
}

// TestNTStoreWithoutFenceRaces: a non-temporal store still requires a fence;
// without one its window ends outside any critical section.
func TestNTStoreWithoutFenceRaces(t *testing.T) {
	const X, A = 0x100, 1
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Lock(1, A, "t1.lock")
	b.NTStore(1, X, 8, "t1.nt")
	b.Unlock(1, A, "t1.unlock")
	b.Fence(1, "t1.latefence") // fence after unlock: different atomic section
	b.Lock(2, A, "t2.lock").Load(2, X, 8, "t2.load").Unlock(2, A, "t2.unlock")
	b.Join(0, 1, "j").Join(0, 2, "j")

	res := Analyze(b.T, cfgNoIRH())
	if !hasReport(res, "t1.nt", "t2.load") {
		t.Fatalf("unfenced nt-store not reported; reports = %v", reportStrings(res))
	}
}

// TestFlushWithoutFenceDoesNotPersist: the worst-case cache requires the
// fence; flush alone leaves the window open (store buffer may stall it).
func TestFlushWithoutFenceDoesNotPersist(t *testing.T) {
	const X, A = 0x100, 1
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Lock(1, A, "t1.lock")
	b.Store(1, X, 8, "t1.store")
	b.Flush(1, X, "t1.flush") // no fence inside the section
	b.Unlock(1, A, "t1.unlock")
	b.Fence(1, "t1.fence")
	b.Lock(2, A, "t2.lock").Load(2, X, 8, "t2.load").Unlock(2, A, "t2.unlock")
	b.Join(0, 1, "j").Join(0, 2, "j")

	res := Analyze(b.T, cfgNoIRH())
	if !hasReport(res, "t1.store", "t2.load") {
		t.Fatalf("flush-no-fence store not reported; reports = %v", reportStrings(res))
	}
}

// TestStoreAfterFlushNotCovered: a store issued between flush and fence is
// not covered by the flush snapshot and stays unpersisted.
func TestStoreAfterFlushNotCovered(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Store(1, X, 8, "t1.store1")
	b.Flush(1, X, "t1.flush")
	b.Store(1, X, 8, "t1.store2") // after the snapshot
	b.Fence(1, "t1.fence")
	b.Load(2, X, 8, "t2.load")
	b.Join(0, 1, "j").Join(0, 2, "j")

	res := Analyze(b.T, cfgNoIRH())
	if !hasReport(res, "t1.store2", "t2.load") {
		t.Fatalf("post-flush store not reported; reports = %v", reportStrings(res))
	}
}

// TestStoreStoreNotReported: HawkSet deliberately ignores store-store pairs
// (§3.1.1).
func TestStoreStoreNotReported(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Store(1, X, 8, "t1.store")
	b.Store(2, X, 8, "t2.store")
	b.Join(0, 1, "j").Join(0, 2, "j")

	res := Analyze(b.T, cfgNoIRH())
	if len(res.Reports) != 0 {
		t.Fatalf("store-store pair reported: %v", reportStrings(res))
	}
}

// TestSameThreadNotReported: pairs from one thread never race.
func TestSameThreadNotReported(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Create(0, 1, "c1")
	b.Store(1, X, 8, "t1.store")
	b.Load(1, X, 8, "t1.load")
	b.Join(0, 1, "j")

	res := Analyze(b.T, cfgNoIRH())
	if len(res.Reports) != 0 {
		t.Fatalf("same-thread pair reported: %v", reportStrings(res))
	}
}

// TestPartialOverlapDetected: HawkSet matches accesses by byte range, not
// just identical start addresses (§3.2: "able to detect partially
// overlapping races").
func TestPartialOverlapDetected(t *testing.T) {
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Store(1, 0x100, 8, "t1.store") // [0x100,0x108)
	b.Load(2, 0x104, 8, "t2.load")   // [0x104,0x10c): overlaps 4 bytes
	b.Join(0, 1, "j").Join(0, 2, "j")

	res := Analyze(b.T, cfgNoIRH())
	if !hasReport(res, "t1.store", "t2.load") {
		t.Fatalf("partial overlap not reported; reports = %v", reportStrings(res))
	}

	// Disjoint ranges in the same cache line must NOT match.
	b2 := trace.NewBuilder()
	b2.Create(0, 1, "c1").Create(0, 2, "c2")
	b2.Store(1, 0x100, 8, "t1.store")
	b2.Load(2, 0x110, 8, "t2.load") // same line, no byte overlap
	b2.Join(0, 1, "j").Join(0, 2, "j")
	res = Analyze(b2.T, cfgNoIRH())
	if len(res.Reports) != 0 {
		t.Fatalf("disjoint same-line accesses reported: %v", reportStrings(res))
	}
}

// TestCrossLineStore: a store spanning two cache lines races with loads in
// either line.
func TestCrossLineStore(t *testing.T) {
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Store(1, 0x13c, 8, "t1.store") // spans lines 4 and 5
	b.Load(2, 0x140, 4, "t2.load")   // second line only
	b.Join(0, 1, "j").Join(0, 2, "j")

	res := Analyze(b.T, cfgNoIRH())
	if !hasReport(res, "t1.store", "t2.load") {
		t.Fatalf("cross-line overlap not reported; reports = %v", reportStrings(res))
	}
	// The pair must be reported exactly once despite sharing two buckets.
	if res.Reports[0].Pairs != 1 {
		t.Fatalf("Pairs = %d, want 1 (bucket dedup)", res.Reports[0].Pairs)
	}
}

// TestCrossThreadFlushHelpsPersist: T2 flushing and fencing T1's line while
// holding the same lock as the store closes the window (helping pattern);
// the effective lockset keeps the common lock.
func TestCrossThreadFlushHelpsPersist(t *testing.T) {
	const X, A = 0x100, 1
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2").Create(0, 3, "c3")
	b.Lock(1, A, "t1.lock").Store(1, X, 8, "t1.store").Unlock(1, A, "t1.unlock")
	b.Lock(2, A, "t2.lock")
	b.Persist(2, X, 8, "t2.persist") // helper persists T1's store under A
	b.Unlock(2, A, "t2.unlock")
	b.Lock(3, A, "t3.lock").Load(3, X, 8, "t3.load").Unlock(3, A, "t3.unlock")
	b.Join(0, 1, "j").Join(0, 2, "j").Join(0, 3, "j")

	res := Analyze(b.T, cfgNoIRH())
	// The effective lockset is {A} (lock identity across threads), and the
	// load holds A: not reported.
	if hasReport(res, "t1.store", "t3.load") {
		t.Fatalf("helped-persist store reported despite common lock: %v", reportStrings(res))
	}
}

// TestIRHDropsInitialization: the classic init pattern — allocate, store,
// persist without locks, then publish — is pruned by the IRH (§3.1.3),
// while the same trace without IRH reports it.
func TestIRHDropsInitialization(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	// T0 initializes X and persists it before spawning the reader.
	b.Store(0, X, 8, "main.init")
	b.Persist(0, X, 8, "main.initpersist")
	b.Create(0, 1, "main.create")
	b.Load(1, X, 8, "t1.load")
	b.Join(0, 1, "main.join")
	// Make the pair VC-concurrent by adding another writer thread whose
	// store is unpersisted — otherwise HB alone would filter it. Use a
	// second address region to keep the scenarios separate.
	cfg := DefaultConfig()
	cfg.HBFilter = false // isolate the IRH: HB would also prune this pair
	res := Analyze(b.T, cfg)
	if hasReport(res, "main.init", "t1.load") {
		t.Fatalf("IRH failed to drop persisted init store: %v", reportStrings(res))
	}
	if res.Stats.IRHDroppedStores != 1 {
		t.Fatalf("IRHDroppedStores = %d, want 1", res.Stats.IRHDroppedStores)
	}

	cfg.IRH = false
	res = Analyze(b.T, cfg)
	if !hasReport(res, "main.init", "t1.load") {
		t.Fatalf("without IRH the init store must be reported (HB off): %v", reportStrings(res))
	}
}

// TestIRHKeepsUnpersistedInit: publishing a pointer to initialized-but-not-
// persisted memory is a genuine race the IRH must keep (§3.1.3's "why
// persistency must be taken into account").
func TestIRHKeepsUnpersistedInit(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Store(0, X, 8, "main.init") // never persisted
	b.Create(0, 1, "main.create")
	b.Load(1, X, 8, "t1.load")
	b.Join(0, 1, "main.join")

	res := Analyze(b.T, DefaultConfig())
	if !hasReport(res, "main.init", "t1.load") {
		t.Fatalf("IRH wrongly dropped unpersisted init store: %v", reportStrings(res))
	}
}

// TestIRHReusePatternFalsePositive reproduces the memcached-pmem limitation
// (§5.4, §7): memory freed and reinitialized by another thread is already
// marked published, so the (safe) reinitialization store is not pruned.
func TestIRHReusePatternFalsePositive(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	// Address becomes public: T1 and T2 both use it, properly persisted.
	b.Store(1, X, 8, "t1.store")
	b.Persist(1, X, 8, "t1.persist")
	b.Load(2, X, 8, "t2.load")
	// T2 "frees" and reinitializes the region without locks, persisting
	// before re-publication — safe, but the IRH cannot tell.
	b.Store(2, X, 8, "t2.reinit")
	b.Persist(2, X, 8, "t2.reinit")
	b.Join(0, 1, "j").Join(0, 2, "j")

	res := Analyze(b.T, DefaultConfig())
	// T1's original init store is legitimately dropped (persisted before
	// publication), but the reinit store lands on an already-published
	// address: the IRH keeps it, and it remains available as a (false
	// positive) race candidate — exactly the memcached limitation.
	if res.Stats.IRHDroppedStores != 1 {
		t.Fatalf("IRHDroppedStores = %d, want 1 (only the pre-publication init)", res.Stats.IRHDroppedStores)
	}
	foundReinit := false
	for i := range res.Stores.Len() {
		if res.Sites.Lookup(res.Stores.At(i).Site).String() == "t2.reinit" {
			foundReinit = true
		}
	}
	if !foundReinit {
		t.Fatal("reinitialization store was wrongly pruned by the IRH")
	}
}

// TestReportDeduplication: repeated racy accesses from one site pair yield a
// single report with counts.
func TestReportDeduplication(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	for i := 0; i < 10; i++ {
		b.Store(1, X, 8, "t1.store")
	}
	for i := 0; i < 10; i++ {
		b.Load(2, X, 8, "t2.load")
	}
	b.Join(0, 1, "j").Join(0, 2, "j")

	res := Analyze(b.T, cfgNoIRH())
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %v, want exactly one deduplicated report", reportStrings(res))
	}
	rep := res.Reports[0]
	if rep.Weight < 10 {
		t.Fatalf("Weight = %d, want >= 10 dynamic pairs", rep.Weight)
	}
	// Grouping: 10 identical stores collapse into few records (9 overwritten
	// + 1 open ⇒ 2 shapes at most).
	if res.Stats.StoreRecords > 3 {
		t.Fatalf("StoreRecords = %d, want <= 3 (shape dedup)", res.Stats.StoreRecords)
	}
	if res.Stats.LoadRecords != 1 {
		t.Fatalf("LoadRecords = %d, want 1", res.Stats.LoadRecords)
	}
}

// TestStatsPlausible sanity-checks bookkeeping counters.
func TestStatsPlausible(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Create(0, 1, "c1")
	b.Store(1, X, 8, "t1.store")
	b.Persist(1, X, 8, "t1.persist")
	b.Load(0, X, 8, "main.load")
	b.Join(0, 1, "j")

	res := Analyze(b.T, cfgNoIRH())
	st := res.Stats
	if st.Events != b.T.Len() {
		t.Fatalf("Events = %d, want %d", st.Events, b.T.Len())
	}
	if st.PMAccesses != 2 {
		t.Fatalf("PMAccesses = %d, want 2", st.PMAccesses)
	}
	if st.DynamicStores != 1 || st.DynamicLoads != 1 {
		t.Fatalf("dynamic counts = %d/%d", st.DynamicStores, st.DynamicLoads)
	}
	if st.LocksetsInterned < 1 || st.VClocksInterned < 2 {
		t.Fatalf("interning stats = %d/%d", st.LocksetsInterned, st.VClocksInterned)
	}
}

// TestEADRModeEmptiesClass: under extended-ADR analysis semantics (§2.1)
// every store persists on visibility and no persistency-induced race
// exists, even for the Figure 1c trace.
func TestEADRModeEmptiesClass(t *testing.T) {
	const X, A = 0x100, 1
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Lock(1, A, "t1.lock").Store(1, X, 8, "t1.store").Unlock(1, A, "t1.unlock").Persist(1, X, 8, "t1.persist")
	b.Load(2, X, 8, "t2.load")
	b.Join(0, 1, "j").Join(0, 2, "j")

	cfg := cfgNoIRH()
	res := Analyze(b.T, cfg)
	if len(res.Reports) == 0 {
		t.Fatal("sanity: the race must be reported under normal semantics")
	}
	cfg.EADR = true
	res = Analyze(b.T, cfg)
	if len(res.Reports) != 0 {
		t.Fatalf("eADR analysis still reports races: %v", reportStrings(res))
	}
}

// TestStoreStoreOption: with the experimental write-write checking enabled,
// unprotected concurrent stores are reported and marked.
func TestStoreStoreOption(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Store(1, X, 8, "t1.store")
	b.Store(2, X, 8, "t2.store")
	b.Join(0, 1, "j").Join(0, 2, "j")

	cfg := cfgNoIRH()
	cfg.StoreStore = true
	res := Analyze(b.T, cfg)
	if len(res.Reports) != 1 || !res.Reports[0].StoreStore {
		t.Fatalf("store-store pair not reported with StoreStore on: %v", res.Reports)
	}
	// Protected store-store pairs stay silent.
	b2 := trace.NewBuilder()
	b2.Create(0, 1, "c1").Create(0, 2, "c2")
	b2.Lock(1, 1, "l").Store(1, X, 8, "t1.store")
	b2.Persist(1, X, 8, "p").Unlock(1, 1, "u")
	b2.Lock(2, 1, "l").Store(2, X, 8, "t2.store")
	b2.Persist(2, X, 8, "p").Unlock(2, 1, "u")
	b2.Join(0, 1, "j").Join(0, 2, "j")
	res = Analyze(b2.T, cfg)
	if len(res.Reports) != 0 {
		t.Fatalf("locked store-store pair reported: %v", reportStrings(res))
	}
}

// TestFlushOfCleanLineNoop: flushing a line with no open stores changes
// nothing.
func TestFlushOfCleanLineNoop(t *testing.T) {
	b := trace.NewBuilder()
	b.Create(0, 1, "c1")
	b.Flush(1, 0x100, "t1.flush")
	b.Fence(1, "t1.fence")
	b.Join(0, 1, "j")
	res := Analyze(b.T, cfgNoIRH())
	if len(res.Reports) != 0 || res.Stats.StoreRecords != 0 {
		t.Fatalf("phantom records from flushing clean lines: %+v", res.Stats)
	}
}

// TestFenceWithoutFlushNoop: a fence with nothing pending closes no windows.
func TestFenceWithoutFlushNoop(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Store(1, X, 8, "t1.store")
	b.Fence(1, "t1.fence") // no flush preceded: store stays unpersisted
	b.Load(2, X, 8, "t2.load")
	b.Join(0, 1, "j").Join(0, 2, "j")
	res := Analyze(b.T, cfgNoIRH())
	if !hasReport(res, "t1.store", "t2.load") {
		t.Fatalf("fence without flush must not persist; reports = %v", reportStrings(res))
	}
	if res.Stats.UnpersistedAtEnd != 1 {
		t.Fatalf("UnpersistedAtEnd = %d, want 1", res.Stats.UnpersistedAtEnd)
	}
}

// TestCrossThreadFenceDoesNotCompleteOthersFlush: T1's flush needs T1's
// fence; T2 fencing in between does not close T1's window (SFENCE is
// per-thread, §2.1).
func TestCrossThreadFenceDoesNotCompleteOthersFlush(t *testing.T) {
	const X, A = 0x100, 1
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2").Create(0, 3, "c3")
	b.Lock(1, A, "t1.lock")
	b.Store(1, X, 8, "t1.store")
	b.Flush(1, X, "t1.flush")
	b.Unlock(1, A, "t1.unlock") // fence still missing
	b.Fence(2, "t2.fence")      // another thread's fence: irrelevant
	b.Lock(3, A, "t3.lock").Load(3, X, 8, "t3.load").Unlock(3, A, "t3.unlock")
	b.Fence(1, "t1.latefence") // completes outside the critical section
	b.Join(0, 1, "j").Join(0, 2, "j").Join(0, 3, "j")

	res := Analyze(b.T, cfgNoIRH())
	if !hasReport(res, "t1.store", "t3.load") {
		t.Fatalf("cross-thread fence wrongly completed the flush; reports = %v", reportStrings(res))
	}
}

// TestMultiLineStoreWindow: a store spanning two lines is closed when its
// covering flushes+fence land, and reported if a load slips in before.
func TestMultiLineStoreWindow(t *testing.T) {
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Store(1, 0x13c, 8, "t1.store") // spans two lines
	b.Load(2, 0x13c, 8, "t2.load")
	b.Persist(1, 0x13c, 8, "t1.persist") // flushes both lines + fence
	b.Join(0, 1, "j").Join(0, 2, "j")
	res := Analyze(b.T, cfgNoIRH())
	if !hasReport(res, "t1.store", "t2.load") {
		t.Fatalf("pre-persist load missed; reports = %v", reportStrings(res))
	}
	if res.Stats.UnpersistedAtEnd != 0 {
		t.Fatalf("multi-line store not closed by Persist: %+v", res.Stats)
	}
}
