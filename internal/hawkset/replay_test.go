package hawkset

import (
	"math/rand"
	"slices"
	"testing"

	"hawkset/internal/trace"
)

// TestLineTabMatchesMap drives a lineTab and a Go map through the same
// random inserts, lookups and deletes, and compares their whole contents
// after every operation. Some keys share one home slot at every table size
// the test reaches, so deletes must shift probe runs back, and enough keys
// are live at once to make the table grow.
func TestLineTabMatchesMap(t *testing.T) {
	const homeBits = 16
	var keys []uint64
	home := hash2(0, 0) & (1<<homeBits - 1)
	for k := uint64(0); len(keys) < 24; k++ {
		if hash2(k, 0)&(1<<homeBits-1) == home {
			keys = append(keys, k)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 1500 {
		keys = append(keys, uint64(rng.Intn(1<<20)))
	}

	var tab lineTab
	ref := map[uint64]uint64{} // line → epoch
	for op := range 6000 {
		k := keys[rng.Intn(len(keys))]
		if rng.Intn(4) == 0 {
			k = keys[rng.Intn(24)]
		}
		switch rng.Intn(4) {
		case 0, 1:
			tab.entries[tab.insert(k)].epoch++
			ref[k]++
		case 2:
			if i := tab.find(k); i >= 0 {
				tab.remove(i)
			}
			delete(ref, k)
		default:
			if got, want := tab.epoch(k), ref[k]; got != want {
				t.Fatalf("op %d: epoch(%d) = %d, want %d", op, k, got, want)
			}
		}
		if tab.used != len(ref) {
			t.Fatalf("op %d: table holds %d lines, map %d", op, tab.used, len(ref))
		}
		for _, e := range tab.entries {
			if e.key != 0 && ref[e.key-1] != e.epoch {
				t.Fatalf("op %d: table has line %d at epoch %d, map %d", op, e.key-1, e.epoch, ref[e.key-1])
			}
		}
		for line, epoch := range ref {
			if i := tab.find(line); i < 0 || tab.entries[i].epoch != epoch {
				t.Fatalf("op %d: line %d (epoch %d) not found", op, line, epoch)
			}
		}
	}
	if len(tab.entries) <= 1<<tabInitBits {
		t.Fatalf("table never grew past %d slots", len(tab.entries))
	}
}

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
