package hawkset

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"hawkset/internal/lockset"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
	"hawkset/internal/vclock"
)

// TestReplayLoadAllocs: a load that dedups into an existing record
// allocates nothing, and a load inside a critical section adds no
// allocation to the lock and unlock around it — its lockset is interned
// without a timestamp-free copy.
func TestReplayLoadAllocs(t *testing.T) {
	const X, L = 0x100, 7
	b := trace.NewBuilder()
	b.Store(1, X, 8, "store").Persist(1, X, 8, "persist")
	b.Load(2, X, 8, "load") // publishes X
	b.Lock(2, L, "lock").Load(2, X, 8, "locked.load").Unlock(2, L, "unlock")
	events := slices.Collect(b.T.Events())
	s := NewStream(b.T.Sites, DefaultConfig())
	for _, e := range events {
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	n := len(events)
	load, lock, lockedLoad, unlock := events[n-4], events[n-3], events[n-2], events[n-1]
	feed := func(evs ...trace.Event) func() {
		return func() {
			for _, e := range evs {
				s.rp.feed(e)
			}
		}
	}

	if got := testing.AllocsPerRun(100, feed(load)); got != 0 {
		t.Errorf("a repeated load allocates %v times, want 0", got)
	}
	bare := testing.AllocsPerRun(100, feed(lock, unlock))
	if got := testing.AllocsPerRun(100, feed(lock, lockedLoad, unlock)); got > bare {
		t.Errorf("lock-load-unlock allocates %v times, lock-unlock %v", got, bare)
	}
	if got := s.rp.stats.IRHDroppedLoads; got != 0 {
		t.Fatalf("the IRH dropped %d of the test's loads", got)
	}
}

// TestReplayPersistCycleAllocs: a store persisted before the next store to
// its line allocates nothing once warm. The line leaves the table when its
// open list empties, and the list's array is recycled for the next store.
func TestReplayPersistCycleAllocs(t *testing.T) {
	b := trace.NewBuilder()
	b.Store(1, 0x100, 8, "store").Persist(1, 0x100, 8, "persist")
	events := slices.Collect(b.T.Events())
	s := NewStream(b.T.Sites, DefaultConfig())
	feed := func() {
		for _, e := range events {
			s.rp.feed(e)
		}
	}
	feed()
	if got := testing.AllocsPerRun(100, feed); got != 0 {
		t.Errorf("a store-flush-fence cycle allocates %v times, want 0", got)
	}
	if s.rp.lines.len() != 0 {
		t.Fatalf("the persisted line stays in the line table")
	}
	for _, a := range s.rp.openPool {
		if slices.ContainsFunc(a[:cap(a)], func(os *openStore) bool { return os != nil }) {
			t.Fatalf("a recycled line list still points at a closed store")
		}
	}
}

// feedAll feeds events to a new stream and returns its finished result.
func feedAll(t *testing.T, events []trace.Event, cfg Config) *Result {
	t.Helper()
	s := NewStream(sites.NewTable(), cfg)
	for _, e := range events {
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLoadRecordsMatchBruteForce interleaves loads of ordinary fields with
// loads of large ones (a TID of 300, a 16 KiB size, site 65,539, and, once
// enough have been interned, lockset IDs past 16,384 and clock IDs past
// 4,096), with repeats of both. Result.Loads must list every distinct load
// shape once, in first-appearance order, with its dynamic count, as a plain
// list built here from the events does. A shape is keyed by the locks its
// thread holds and by how many clock-advancing events the thread has
// issued; the records' interned lockset and clock IDs must map one-to-one
// onto those.
func TestLoadRecordsMatchBruteForce(t *testing.T) {
	type shape struct {
		tid        int32
		addr       uint64
		size       uint32
		site       sites.ID
		locks      uint64 // the one lock held, or 0
		clockSteps int
	}
	var (
		events []trace.Event
		order  []shape
		count  = map[shape]uint64{}
		held   uint64 // thread 1's lock
		steps  = map[int32]int{}
	)
	rng := rand.New(rand.NewSource(1))
	load := func(tid int32, size uint32, site sites.ID) {
		addr := 0x1000 + 8*uint64(rng.Intn(3))
		k := shape{tid, addr, size, site, 0, steps[tid]}
		if tid == 1 {
			k.locks = held
		}
		if count[k] == 0 {
			order = append(order, k)
		}
		count[k]++
		events = append(events, trace.Event{Kind: trace.KLoad, TID: tid, Addr: addr, Size: size, Site: site})
	}
	// loads issues a packable load of thread 1, which interns its lockset
	// and clock, and up to two more of any kind.
	loads := func() {
		load(1, 8, sites.ID(rng.Intn(2)))
		for range rng.Intn(3) {
			switch rng.Intn(8) {
			case 0:
				load(300, 8, 1)
			case 1:
				load(1, 16<<10, 1)
			case 2:
				load(1, 8, 65_539)
			case 3:
				load(2, 8, 2)
			default:
				load(1, 8, sites.ID(rng.Intn(2)))
			}
		}
	}
	events = append(events, trace.Event{Kind: trace.KThreadCreate, TID: 1, Kid: 2})
	steps[1]++
	// One lock per critical section: thread 1's lockset IDs pass 16,384.
	for l := range uint64(16_384 + 64) {
		events = append(events, trace.Event{Kind: trace.KLockAcq, TID: 1, Lock: l + 1})
		held = l + 1
		loads()
		events = append(events, trace.Event{Kind: trace.KLockRel, TID: 1, Lock: l + 1})
		held = 0
		if rng.Intn(4) == 0 {
			loads()
		}
	}
	// Every join advances thread 1's clock: its clock IDs pass 4,096.
	for range 4_096 + 64 {
		events = append(events, trace.Event{Kind: trace.KThreadJoin, TID: 1, Kid: 2})
		steps[1]++
		loads()
	}

	cfg := DefaultConfig()
	cfg.IRH = false
	res := feedAll(t, events, cfg)
	if res.Loads.Len() != len(order) {
		t.Fatalf("%d load records, want %d", res.Loads.Len(), len(order))
	}
	lsOf := map[uint64]lockset.ID{}
	vcOf := map[[2]int]vclock.ID{}
	lsSeen := map[lockset.ID]bool{}
	vcSeen := map[vclock.ID]bool{}
	var overLS, overVC bool
	for i, k := range order {
		d := *res.Loads.At(i)
		if d.TID != k.tid || d.Addr != k.addr || d.Size != k.size || d.Site != k.site || d.Count != count[k] {
			t.Fatalf("record %d = %+v, want shape %+v ×%d", i, d, k, count[k])
		}
		if id, ok := lsOf[k.locks]; !ok {
			if lsSeen[d.LS] {
				t.Fatalf("record %d: lockset ID %d stands for two lock sets", i, d.LS)
			}
			lsOf[k.locks], lsSeen[d.LS] = d.LS, true
		} else if id != d.LS {
			t.Fatalf("record %d: lock %d interned as %d and %d", i, k.locks, id, d.LS)
		}
		c := [2]int{int(k.tid), k.clockSteps}
		if id, ok := vcOf[c]; !ok {
			if vcSeen[d.VC] {
				t.Fatalf("record %d: clock ID %d stands for two clocks", i, d.VC)
			}
			vcOf[c], vcSeen[d.VC] = d.VC, true
		} else if id != d.VC {
			t.Fatalf("record %d: thread %d step %d has clocks %d and %d", i, k.tid, k.clockSteps, id, d.VC)
		}
		overLS = overLS || d.LS >= 16_384
		overVC = overVC || d.VC >= 4_096
	}
	if !overLS || !overVC {
		t.Fatalf("no record's lockset (%v) or clock (%v) ID reached its bound", overLS, overVC)
	}
}

// TestDistinctRecordsAllocs bounds what replay allocates per record, with
// the IRH off. Each record is appended once to a log of chunks that never
// move, and the index that finds it holds an 8-byte slot; the tables grow a
// segment at a time and never copy themselves, and a persisted store's
// window record is recycled for the next store. So 100,000 distinct loads
// (each also a publication-table entry) allocate under 150 B each, and
// 100,000 distinct persisted stores under 160 B each.
func TestDistinctRecordsAllocs(t *testing.T) {
	const n = 100_000
	var loads, stores []trace.Event
	for i := range uint64(n) {
		loads = append(loads, trace.Event{Kind: trace.KLoad, TID: 1, Addr: 8 * i, Size: 8})
		stores = append(stores, trace.Event{Kind: trace.KStore, TID: 1, Addr: 64 * i, Size: 8},
			trace.Event{Kind: trace.KFlush, TID: 1, Addr: 64 * i}, trace.Event{Kind: trace.KFence, TID: 1})
	}
	cfg := DefaultConfig()
	cfg.IRH = false
	for _, tc := range []struct {
		name   string
		events []trace.Event
		bound  float64
		count  func(*Result) int
	}{
		{"load", loads, 150, func(r *Result) int { return r.Loads.Len() }},
		{"store", stores, 160, func(r *Result) int { return r.Stores.Len() }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := feedAll(t, tc.events, cfg)
		runtime.ReadMemStats(&after)
		if got := tc.count(res); got != n {
			t.Fatalf("%d %s records, want %d", got, tc.name, n)
		}
		per := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%.0f B per %s record", per, tc.name)
		if per >= tc.bound {
			t.Errorf("replay allocates %.0f B per %s record, want < %.0f", per, tc.name, tc.bound)
		}
	}
}

// TestRecordsSameButCount: the index confirms a fingerprint match with the
// record's same method, which must tell apart records that differ in any
// field but their count, since records that share a fingerprint are rare
// enough that no trace test reaches every field.
func TestRecordsSameButCount(t *testing.T) {
	check := func(rec any, same func(a, b any) bool) {
		v := reflect.ValueOf(rec)
		for i := range v.NumField() {
			o := reflect.New(v.Type()).Elem()
			o.Set(v)
			if f := o.Field(i); f.CanInt() {
				f.SetInt(f.Int() + 1)
			} else {
				f.SetUint(f.Uint() + 1)
			}
			if got, want := same(rec, o.Interface()), v.Type().Field(i).Name == "Count"; got != want {
				t.Errorf("%T differing in %s: same = %v, want %v", rec, v.Type().Field(i).Name, got, want)
			}
		}
	}
	check(LoadData{TID: 1, Addr: 2, Size: 3, Site: 4, LS: 5, VC: 6, Count: 7}, func(a, b any) bool {
		o := b.(LoadData)
		return a.(LoadData).same(&o)
	})
	check(StoreData{TID: 1, Addr: 2, Size: 3, Site: 4, Eff: 5, Start: 6, End: 7, EndKind: 1, Count: 8}, func(a, b any) bool {
		o := b.(StoreData)
		return a.(StoreData).same(&o)
	})
}

// TestFinishReadsRecordsInPlace: stage ③ reads the load records where replay
// appended them, so Finish on 100,000 distinct loads allocates only its
// bucket index and pairing state, under 20 B per record: a copy of the
// records alone would take 40.
func TestFinishReadsRecordsInPlace(t *testing.T) {
	const n = 100_000
	cfg := DefaultConfig()
	cfg.IRH = false
	s := NewStream(sites.NewTable(), cfg)
	for i := range uint64(n) {
		if err := s.Feed(trace.Event{Kind: trace.KLoad, TID: 1, Addr: 8 * i, Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := s.Finish()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Loads.Len(); got != n {
		t.Fatalf("%d load records, want %d", got, n)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("Finish allocates %.1f B per load record", per)
	if per >= 20 {
		t.Errorf("Finish allocates %.1f B per load record, want < 20", per)
	}
}

// TestOpenStoreSize: a window record's count sits in the padding after
// closed, so the record stays 72 bytes.
func TestOpenStoreSize(t *testing.T) {
	if got := unsafe.Sizeof(openStore{}); got != 72 {
		t.Fatalf("openStore is %d bytes, want 72", got)
	}
}
