package eraser

import (
	"testing"

	"hawkset/internal/trace"
)

// TestMissesFigure1c: traditional lockset analysis cannot see the
// persistency escaping the critical section (§3.1.1).
func TestMissesFigure1c(t *testing.T) {
	const X, A = 0x100, 1
	b := trace.NewBuilder()
	b.Lock(1, A, "t1.lock").Store(1, X, 8, "t1.store").Unlock(1, A, "t1.unlock")
	b.Persist(1, X, 8, "t1.persist")
	b.Lock(2, A, "t2.lock").Load(2, X, 8, "t2.load").Unlock(2, A, "t2.unlock")

	res := Analyze(b.T)
	if res.Has("t1.store", "t2.load") {
		t.Fatal("traditional analysis should miss the Figure 1c persistency race")
	}
}

// TestDetectsClassicRace: a plain unlocked store/load pair is still found.
func TestDetectsClassicRace(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Store(1, X, 8, "t1.store")
	b.Load(2, X, 8, "t2.load")

	res := Analyze(b.T)
	if !res.Has("t1.store", "t2.load") {
		t.Fatalf("classic race missed; reports = %v", res.Reports)
	}
}

// TestReportsStoreStore: unlike HawkSet, Eraser checks write-write pairs.
func TestReportsStoreStore(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Store(1, X, 8, "t1.store")
	b.Store(2, X, 8, "t2.store")

	res := Analyze(b.T)
	if !res.Has("t1.store", "t2.store") {
		t.Fatalf("store-store race missed; reports = %v", res.Reports)
	}
}

// TestProtectedAccessesSilent: common lock ⇒ no report.
func TestProtectedAccessesSilent(t *testing.T) {
	const X, A = 0x100, 1
	b := trace.NewBuilder()
	b.Lock(1, A, "l").Store(1, X, 8, "t1.store").Unlock(1, A, "u")
	b.Lock(2, A, "l").Load(2, X, 8, "t2.load").Unlock(2, A, "u")

	res := Analyze(b.T)
	if len(res.Reports) != 0 {
		t.Fatalf("protected accesses reported: %v", res.Reports)
	}
}

// TestNoHappensBeforeFilter: Eraser reports even ordered (create/join)
// accesses — the false-positive class HawkSet's vector clocks remove.
func TestNoHappensBeforeFilter(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Store(0, X, 8, "main.init")
	b.Persist(0, X, 8, "main.persist")
	b.Create(0, 1, "create")
	b.Load(1, X, 8, "t1.load")
	b.Join(0, 1, "join")

	res := Analyze(b.T)
	if !res.Has("main.init", "t1.load") {
		t.Fatal("Eraser has no HB filter; the ordered pair should be (wrongly) reported")
	}
}

// TestLoadLoadIgnored: two loads never race.
func TestLoadLoadIgnored(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	b.Load(1, X, 8, "t1.load")
	b.Load(2, X, 8, "t2.load")

	res := Analyze(b.T)
	if len(res.Reports) != 0 {
		t.Fatalf("load-load pair reported: %v", res.Reports)
	}
}

// TestDedup: repeated identical accesses collapse into one record.
func TestDedup(t *testing.T) {
	const X = 0x100
	b := trace.NewBuilder()
	for i := 0; i < 50; i++ {
		b.Store(1, X, 8, "t1.store")
		b.Load(2, X, 8, "t2.load")
	}
	res := Analyze(b.T)
	if res.Records != 2 {
		t.Fatalf("Records = %d, want 2", res.Records)
	}
	if len(res.Reports) != 1 {
		t.Fatalf("Reports = %v, want one deduplicated report", res.Reports)
	}
}

// TestRaceAtAddressSpaceTop: ranges at the top of the address space are
// bucketed and compared like any other. Adding an address and a size there
// wraps: the overlap test missed a pair covering the last 8 bytes, and the
// bucket loop dropped a store running past the top.
func TestRaceAtAddressSpaceTop(t *testing.T) {
	const top = ^uint64(0)
	b := trace.NewBuilder()
	b.Store(1, top-7, 8, "t1.store.last8")
	b.Load(2, top-7, 8, "t2.load.last8")
	b.Store(1, top-3, 8, "t1.store.pasttop")
	b.Load(2, top-3, 4, "t2.load.pasttop")

	res := Analyze(b.T)
	for _, pair := range [][2]string{
		{"t1.store.last8", "t2.load.last8"},
		{"t1.store.pasttop", "t2.load.pasttop"},
	} {
		if !res.Has(pair[0], pair[1]) {
			t.Errorf("%s / %s missed; reports = %v", pair[0], pair[1], res.Reports)
		}
	}
}
