package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"hawkset/internal/sites"
)

// events collects a trace's events for tests that index or compare them.
func events(t *Trace) []Event { return slices.Collect(t.Events()) }

func sampleTrace() *Trace {
	b := NewBuilder()
	b.Create(0, 1, "main.spawn")
	b.Lock(1, 7, "worker.lock")
	b.Store(1, 0x100, 8, "worker.store")
	b.Persist(1, 0x100, 8, "worker.persist")
	b.Unlock(1, 7, "worker.unlock")
	b.Load(0, 0x100, 8, "main.load")
	b.NTStore(0, 0x200, 8, "main.nt")
	b.Fence(0, "main.fence")
	b.Join(0, 1, "main.join")
	return b.T
}

func TestBuilderProducesEvents(t *testing.T) {
	tr := sampleTrace()
	counts := tr.Counts()
	if counts[KStore] != 1 || counts[KLoad] != 1 || counts[KFlush] != 1 ||
		counts[KFence] != 2 || counts[KLockAcq] != 1 || counts[KLockRel] != 1 ||
		counts[KNTStore] != 1 || counts[KThreadCreate] != 1 || counts[KThreadJoin] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeWith(&buf, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events(got), events(tr)) {
		t.Fatalf("events differ:\n got %v\nwant %v", events(got), events(tr))
	}
	for e := range tr.Events() {
		want := tr.Sites.Lookup(e.Site).String()
		if got := got.Sites.Lookup(e.Site).String(); got != want {
			t.Fatalf("site %d = %q, want %q", e.Site, got, want)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeWith(&buf, tr, Options{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{5, len(raw) / 2, len(raw) - 1} {
		if _, err := Decode(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestEventString(t *testing.T) {
	tr := sampleTrace()
	var all []string
	for e := range tr.Events() {
		all = append(all, e.String())
	}
	s := strings.Join(all, "\n")
	for _, want := range []string{"store", "load", "flush", "fence", "lock", "unlock", "create", "join", "ntstore"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered trace missing %q:\n%s", want, s)
		}
	}
}

// Property: encode∘decode is the identity on random event sequences.
func TestRoundTripProperty(t *testing.T) {
	kinds := []Kind{KStore, KLoad, KNTStore, KFlush, KFence, KLockAcq, KLockRel, KThreadCreate, KThreadJoin}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		site := tr.Sites.Intern(sites.Frame{File: "x.go", Line: 1, Func: "f"})
		for i := 0; i < 100; i++ {
			e := Event{Kind: kinds[rng.Intn(len(kinds))], TID: int32(rng.Intn(8)), Site: site}
			switch e.Kind {
			case KStore, KLoad, KNTStore:
				e.Addr = uint64(rng.Intn(1 << 20))
				e.Size = uint32(rng.Intn(64) + 1)
			case KFlush:
				e.Addr = uint64(rng.Intn(1<<20)) / 64 * 64
			case KLockAcq, KLockRel:
				e.Lock = uint64(rng.Intn(100))
			case KThreadCreate, KThreadJoin:
				e.Kid = int32(rng.Intn(8))
			}
			tr.Append(e)
		}
		var buf bytes.Buffer
		if err := EncodeWith(&buf, tr, Options{}); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(events(got), events(tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Regression: the encoder wrote len(frames)-1 into the header, so a site table
// without the reserved frame 0 (a zero-value Table) underflowed the count to
// 2⁶⁴−1 and produced a file every decoder rejects as corrupt. It must fail
// loudly at encode time instead, writing nothing.
func TestEncodeRejectsMissingReservedFrame(t *testing.T) {
	tr := &Trace{Sites: &sites.Table{}}
	var buf bytes.Buffer
	if err := EncodeWith(&buf, tr, Options{}); err == nil {
		t.Fatal("EncodeWith accepted a site table without the reserved frame 0")
	}
	if buf.Len() != 0 {
		t.Fatalf("EncodeWith wrote %d bytes before failing", buf.Len())
	}
	// A well-formed (fresh) trace still round-trips through the same guard.
	ok := New()
	ok.Append(Event{Kind: KFence, TID: 1, Site: 0})
	buf.Reset()
	if err := EncodeWith(&buf, ok, Options{}); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events(got), events(ok)) {
		t.Fatalf("round trip mismatch: %v != %v", events(got), events(ok))
	}
}

// seqTrace appends n events whose Addr is their position.
func seqTrace(n int) *Trace {
	tr := New()
	for i := range n {
		tr.Append(Event{Kind: KStore, TID: 1, Addr: uint64(i), Size: 8})
	}
	return tr
}

// TestChunkBoundaries: Len and iteration order hold at every chunk edge, and
// a break stops the iteration there, in the first chunk or a later one.
func TestChunkBoundaries(t *testing.T) {
	// The sizes of the first four chunks, 4, 8, 16 and 32 Ki events, sum to
	// 60 Ki; the fifth holds maxChunk.
	for _, n := range []int{
		0, 1,
		firstChunk - 1, firstChunk, firstChunk + 1,
		15*firstChunk - 1, 15 * firstChunk, 15*firstChunk + 1,
		15*firstChunk + 3*maxChunk + 7,
	} {
		tr := seqTrace(n)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		i := 0
		for e := range tr.Events() {
			if e.Addr != uint64(i) {
				t.Fatalf("n=%d: event %d has Addr %d", n, i, e.Addr)
			}
			i++
		}
		if i != n {
			t.Fatalf("n=%d: iterated %d events", n, i)
		}
		for _, stop := range []int{0, firstChunk - 1, firstChunk, n - 1} {
			if stop < 0 || stop >= n {
				continue
			}
			seen := 0
			for e := range tr.Events() {
				seen++
				if e.Addr == uint64(stop) {
					break
				}
			}
			if seen != stop+1 {
				t.Fatalf("n=%d: break at %d after %d events", n, stop, seen)
			}
		}
	}
}

// TestAppendDoesNotCopy: recording 2^20 events allocates little more than
// their records, and spilled events little more than themselves on top.
// Appending to one growing slice allocated about 5x, every growth step
// copying all events so far.
func TestAppendDoesNotCopy(t *testing.T) {
	const n = 1 << 20
	recBytes, eventBytes := float64(unsafe.Sizeof(record{})), float64(unsafe.Sizeof(Event{}))
	for _, c := range []struct {
		name  string
		event func(i int) Event
		limit float64 // bytes
	}{
		// In budget: every event packs.
		{"packed", func(i int) Event {
			return Event{Kind: KStore, TID: int32(i % (1 << tidBits)), Addr: uint64(i), Size: 8, Site: sites.ID(i)}
		}, 1.1 * n * recBytes},
		// All but the first 2^11 thread IDs exceed the TID width and spill.
		{"spilled", func(i int) Event { return Event{Kind: KFence, TID: int32(i)} }, 1.1 * n * (recBytes + eventBytes)},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := New()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range n {
				tr.Append(c.event(i))
			}
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(tr)
			if got := float64(after.TotalAlloc - before.TotalAlloc); got >= c.limit {
				t.Fatalf("appending %d events allocated %.0f bytes, want < %.0f", n, got, c.limit)
			}
		})
	}
}
