package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Fatal("same name must return the same counter")
	}
}

func TestGaugeHighWater(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("level")
	g.Add(3)
	g.Add(7) // 10: the high-water mark
	g.Add(-6)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge value = %d, want 4", got)
	}
	if got := g.Max(); got != 10 {
		t.Fatalf("gauge max = %d, want 10", got)
	}
	g.Set(2)
	if got, m := g.Value(), g.Max(); got != 2 || m != 10 {
		t.Fatalf("after Set: value=%d max=%d, want 2/10", got, m)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d")
	h.Observe(500 * time.Nanosecond) // bucket 0 (<= 1µs)
	h.Observe(5 * time.Millisecond)  // <= 10ms
	h.Observe(2 * time.Minute)       // +Inf overflow
	h.Observe(-time.Second)          // clamped to 0, bucket 0
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	snap := r.Snapshot().Durations[0]
	if snap.MinNS != 0 {
		t.Fatalf("min = %d, want 0 (clamped negative)", snap.MinNS)
	}
	if snap.MaxNS != int64(2*time.Minute) {
		t.Fatalf("max = %d, want %d", snap.MaxNS, int64(2*time.Minute))
	}
	byLE := map[string]uint64{}
	for _, b := range snap.Buckets {
		byLE[b.LE] = b.Count
	}
	if byLE["1µs"] != 2 || byLE["10ms"] != 1 || byLE["+Inf"] != 1 {
		t.Fatalf("bucket counts wrong: %v", byLE)
	}
}

func TestStageTimer(t *testing.T) {
	r := NewRegistry()
	stop := r.Stage("stage.x")
	time.Sleep(time.Millisecond)
	stop()
	h := r.Histogram("stage.x")
	if h.Count() != 1 || h.Sum() < time.Millisecond {
		t.Fatalf("stage timer: count=%d sum=%v", h.Count(), h.Sum())
	}
}

// TestNilRegistry: the disabled layer must be callable everywhere.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Counter("a").Add(3)
	r.Gauge("b").Set(1)
	r.Gauge("b").Add(-1)
	r.Histogram("c").Observe(time.Second)
	r.Stage("d")()
	r.Histogram("c").Time()()
	if r.Counter("a").Value() != 0 || r.Gauge("b").Value() != 0 || r.Gauge("b").Max() != 0 ||
		r.Histogram("c").Count() != 0 || r.Histogram("c").Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Durations) != 0 {
		t.Fatalf("nil registry snapshot must be empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDeterministic: identical metric states serialize to identical
// bytes regardless of registration order.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(order []string) *Registry {
		r := NewRegistry()
		for _, n := range order {
			r.Counter("c." + n).Add(7)
			r.Gauge("g." + n).Set(2)
		}
		return r
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})
	var ab, bb bytes.Buffer
	if err := a.Snapshot().WriteJSON(&ab); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot().WriteJSON(&bb); err != nil {
		t.Fatal(err)
	}
	if ab.String() != bb.String() {
		t.Fatalf("snapshot order depends on registration order:\n%s\nvs\n%s", ab.String(), bb.String())
	}
	var back Snapshot
	if err := json.Unmarshal(ab.Bytes(), &back); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(back.Counters) != 3 || back.Counters[0].Name != "c.alpha" {
		t.Fatalf("counters not sorted: %+v", back.Counters)
	}
}

func TestWriteTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("pmrt.events").Add(42)
	r.Gauge("hawkset.replay.open_stores").Set(3)
	r.Histogram("hawkset.stage.analyze").Observe(12 * time.Millisecond)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"counters:", "pmrt.events", "42", "high-water", "hawkset.stage.analyze", "n=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentObservers: shards observe into shared metrics without a
// registry lock; totals must add up (atomicity smoke, run with -race).
func TestConcurrentObservers(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	g := r.Gauge("lvl")
	h := r.Histogram("d")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: counter=%d hist=%d", c.Value(), h.Count())
	}
	if g.Value() != 0 || g.Max() < 1 || g.Max() > 8 {
		t.Fatalf("gauge value=%d max=%d", g.Value(), g.Max())
	}
}
