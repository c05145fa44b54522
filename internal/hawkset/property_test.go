package hawkset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hawkset/internal/trace"
)

// randTrace builds a random-but-well-formed trace: a main thread creates
// nThreads workers, each performing random locked/unlocked PM accesses with
// random persistency, and joins them.
func randTrace(rng *rand.Rand) *trace.Trace {
	b := trace.NewBuilder()
	nThreads := 2 + rng.Intn(3)
	nAddrs := 1 + rng.Intn(6)
	nLocks := 1 + rng.Intn(3)
	for t := 1; t <= nThreads; t++ {
		b.Create(0, int32(t), "main.create")
	}
	for t := 1; t <= nThreads; t++ {
		tid := int32(t)
		for op := 0; op < 3+rng.Intn(10); op++ {
			addr := uint64(0x100 + 64*rng.Intn(nAddrs))
			lock := uint64(1 + rng.Intn(nLocks))
			locked := rng.Intn(2) == 0
			if locked {
				b.Lock(tid, lock, "lock")
			}
			switch rng.Intn(3) {
			case 0:
				b.Store(tid, addr, 8, "store")
			case 1:
				b.Store(tid, addr, 8, "store")
				b.Persist(tid, addr, 8, "persist")
			default:
				b.Load(tid, addr, 8, "load")
			}
			if locked {
				b.Unlock(tid, lock, "unlock")
			}
		}
	}
	for t := 1; t <= nThreads; t++ {
		b.Join(0, int32(t), "main.join")
	}
	return b.T
}

// TestPropertyDeterministic: analyzing the same trace twice yields identical
// reports.
func TestPropertyDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		tr := randTrace(rand.New(rand.NewSource(seed)))
		a := Analyze(tr, DefaultConfig())
		b := Analyze(tr, DefaultConfig())
		if len(a.Reports) != len(b.Reports) {
			return false
		}
		for i := range a.Reports {
			if a.Reports[i] != b.Reports[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFiltersMonotone: each pruning feature (IRH, HB filter) can
// only remove reports, never add them; disabling the effective lockset can
// only remove reports (the plain store lockset is a superset of the
// effective one, so more pairs intersect).
func TestPropertyFiltersMonotone(t *testing.T) {
	f := func(seed int64) bool {
		tr := randTrace(rand.New(rand.NewSource(seed)))
		full := reportSet(Analyze(tr, DefaultConfig()))

		noIRH := DefaultConfig()
		noIRH.IRH = false
		withoutIRH := reportSet(Analyze(tr, noIRH))
		// Every IRH-on report must also appear with IRH off.
		for r := range full {
			if _, ok := withoutIRH[r]; !ok {
				return false
			}
		}

		noHB := DefaultConfig()
		noHB.HBFilter = false
		withoutHB := reportSet(Analyze(tr, noHB))
		for r := range full {
			if _, ok := withoutHB[r]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func reportSet(res *Result) map[[2]string]struct{} {
	out := map[[2]string]struct{}{}
	for _, r := range res.Reports {
		out[[2]string{r.StoreFrame.String(), r.LoadFrame.String()}] = struct{}{}
	}
	return out
}

// TestPropertyNoSameThreadReports: no report ever pairs accesses of one
// thread (Algorithm 1, line 16).
func TestPropertyNoSameThreadReports(t *testing.T) {
	f := func(seed int64) bool {
		tr := randTrace(rand.New(rand.NewSource(seed)))
		res := Analyze(tr, DefaultConfig())
		for _, r := range res.Reports {
			if r.StoreTID == r.LoadTID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFullyLockedAndPersistedSilent: if every access runs under one
// global lock with in-section persistency, nothing is ever reported.
func TestPropertyFullyLockedAndPersistedSilent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := trace.NewBuilder()
		nThreads := 2 + rng.Intn(3)
		for t := 1; t <= nThreads; t++ {
			b.Create(0, int32(t), "main.create")
		}
		for t := 1; t <= nThreads; t++ {
			tid := int32(t)
			for op := 0; op < 3+rng.Intn(8); op++ {
				addr := uint64(0x100 + 64*rng.Intn(4))
				b.Lock(tid, 1, "lock")
				if rng.Intn(2) == 0 {
					b.Store(tid, addr, 8, "store")
					b.Persist(tid, addr, 8, "persist")
				} else {
					b.Load(tid, addr, 8, "load")
				}
				b.Unlock(tid, 1, "unlock")
			}
		}
		for t := 1; t <= nThreads; t++ {
			b.Join(0, int32(t), "main.join")
		}
		cfg := DefaultConfig()
		cfg.IRH = false
		return len(Analyze(b.T, cfg).Reports) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyUnlockedUnpersistedAlwaysReported: a lock-free store that is
// never persisted is reported against any overlapping lock-free load from a
// concurrent thread.
func TestPropertyUnlockedUnpersistedAlwaysReported(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		addr := uint64(0x100 + 64*rng.Intn(4))
		b := trace.NewBuilder()
		b.Create(0, 1, "c").Create(0, 2, "c")
		b.Store(1, addr, 8, "t1.store")
		b.Load(2, addr, 8, "t2.load")
		b.Join(0, 1, "j").Join(0, 2, "j")
		cfg := DefaultConfig()
		cfg.IRH = false
		res := Analyze(b.T, cfg)
		return len(res.Reports) == 1 && res.Reports[0].Unpersisted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyStatsConsistent: dedup bookkeeping adds up.
func TestPropertyStatsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		tr := randTrace(rand.New(rand.NewSource(seed)))
		cfg := DefaultConfig()
		cfg.IRH = false
		res := Analyze(tr, cfg)
		var dynStores, dynLoads uint64
		for i := range res.Stores.Len() {
			dynStores += res.Stores.At(i).Count
		}
		for i := range res.Loads.Len() {
			dynLoads += res.Loads.At(i).Count
		}
		return dynStores == res.Stats.DynamicStores &&
			dynLoads == res.Stats.DynamicLoads &&
			res.Stores.Len() == res.Stats.StoreRecords &&
			res.Loads.Len() == res.Stats.LoadRecords
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRWLockSemantics: a store under a write lock and a load under the read
// side of the same lock intersect on the lock identity — protected. The
// trace-level encoding uses one lock ID for both modes (see pmrt.RWMutex).
func TestRWLockSemantics(t *testing.T) {
	const X, L = 0x100, 9
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Lock(1, L, "t1.wlock")
	b.Store(1, X, 8, "t1.store")
	b.Persist(1, X, 8, "t1.persist")
	b.Unlock(1, L, "t1.wunlock")
	b.Lock(2, L, "t2.rlock")
	b.Load(2, X, 8, "t2.load")
	b.Unlock(2, L, "t2.runlock")
	b.Join(0, 1, "j").Join(0, 2, "j")

	res := Analyze(b.T, cfgNoIRH())
	if len(res.Reports) != 0 {
		t.Fatalf("reader/writer lock pair reported: %v", reportStrings(res))
	}
}
