package hawkset

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"hawkset/internal/sites"
	"hawkset/internal/trace"
)

// TestStreamMatchesOffline: feeding events one at a time produces exactly
// the offline Analyze result.
func TestStreamMatchesOffline(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tr := randTrace(rand.New(rand.NewSource(seed)))
		offline := Analyze(tr, DefaultConfig())

		s := NewStream(tr.Sites, DefaultConfig())
		for e := range tr.Events() {
			if err := s.Feed(e); err != nil {
				t.Fatalf("seed %d: Feed: %v", seed, err)
			}
		}
		online, err := s.Finish()
		if err != nil {
			t.Fatalf("seed %d: Finish: %v", seed, err)
		}

		if len(offline.Reports) != len(online.Reports) {
			t.Fatalf("seed %d: offline %d reports, online %d", seed, len(offline.Reports), len(online.Reports))
		}
		for i := range offline.Reports {
			if offline.Reports[i].StoreFrame != online.Reports[i].StoreFrame ||
				offline.Reports[i].LoadFrame != online.Reports[i].LoadFrame {
				t.Fatalf("seed %d: report %d differs", seed, i)
			}
		}
		if offline.Stats != online.Stats {
			t.Fatalf("seed %d: stats differ:\n%+v\n%+v", seed, offline.Stats, online.Stats)
		}
	}
}

// TestStreamLifecycle: Feed after Finish and double Finish surface the typed
// sentinel error instead of panicking — a misbehaving event source must not
// be able to crash a server hosting the stream (internal/pmcheckd).
func TestStreamLifecycle(t *testing.T) {
	tr := trace.NewBuilder()
	tr.Store(1, 0x100, 8, "s")
	s := NewStream(tr.T.Sites, DefaultConfig())
	ev := slices.Collect(tr.T.Events())[0]
	if err := s.Feed(ev); err != nil {
		t.Fatalf("Feed on live stream: %v", err)
	}
	if _, err := s.Finish(); err != nil {
		t.Fatalf("first Finish: %v", err)
	}
	if err := s.Feed(ev); !errors.Is(err, ErrStreamFinished) {
		t.Fatalf("Feed after Finish: got %v, want ErrStreamFinished", err)
	}
	if res, err := s.Finish(); !errors.Is(err, ErrStreamFinished) || res != nil {
		t.Fatalf("second Finish: got (%v, %v), want (nil, ErrStreamFinished)", res, err)
	}
}

// TestFinishedStreamHoldsNoReplayState: once Finish has handed its records
// to the Result, a stream holds none of its replay tables, so a server that
// keeps finished streams (pmcheckd's tenants) does not keep their memory.
// With the Result dropped, the live heap a finished stream of 100,000
// distinct loads and stores keeps reachable must stay under 1 MiB.
func TestFinishedStreamHoldsNoReplayState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IRH = false
	s := NewStream(sites.NewTable(), cfg)
	for i := range uint64(100_000) {
		for _, e := range []trace.Event{
			{Kind: trace.KLoad, TID: 1, Addr: 8 * i, Size: 8},
			{Kind: trace.KStore, TID: 1, Addr: 64 * i, Size: 8},
		} {
			if err := s.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	held := live()
	runtime.KeepAlive(s)
	if freed := held - min(held, live()); freed >= 1<<20 {
		t.Fatalf("a finished stream keeps %d bytes of replay state reachable", freed)
	}
}

// TestStreamFeedUnknownKind: an event of an unknown kind fed between valid
// events is an error, not a panic, and leaves no trace in the result.
func TestStreamFeedUnknownKind(t *testing.T) {
	tr := randTrace(rand.New(rand.NewSource(3)))
	want := Analyze(tr, DefaultConfig())

	s := NewStream(tr.Sites, DefaultConfig())
	mid := tr.Len() / 2
	for i, e := range slices.Collect(tr.Events()) {
		if i == mid {
			bad := trace.Event{Kind: trace.Kind(200), TID: e.TID, Addr: e.Addr, Size: 8, Site: e.Site}
			if err := s.Feed(bad); err == nil {
				t.Fatal("Feed accepted an unknown event kind")
			}
		}
		if err := s.Feed(e); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	got, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result differs from the trace without the unknown event:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
}
