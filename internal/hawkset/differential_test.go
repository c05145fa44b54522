// Differential fuzz: the online Stream (Feed + Finish) and the offline
// Analyze must produce byte-identical report documents for any trace, and
// enabling metrics must not perturb either. The test lives in the external
// test package because it builds report.Documents (internal/report imports
// hawkset, so the internal test package would create an import cycle).
package hawkset_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"hawkset/internal/hawkset"
	"hawkset/internal/obs"
	"hawkset/internal/report"
	"hawkset/internal/trace"
)

// randDiffTrace builds a random trace that exercises the replayer paths the
// plain property-test generator does not: multi-line stores (up to four
// cache lines), same-address overwrites, non-temporal stores, raw
// flush/fence persistency, and cross-thread flushes (one thread stores, a
// different thread flushes the line and fences).
func randDiffTrace(rng *rand.Rand) *trace.Trace {
	b := trace.NewBuilder()
	nThreads := 2 + rng.Intn(3)
	nLocks := 1 + rng.Intn(3)
	sizes := []uint32{0, 1, 8, 64, 80, 128, 200}
	// A small, shared address pool with sub-line offsets so stores overlap
	// and overwrite each other both within and across cache lines.
	var addrs []uint64
	for i := 0; i < 4+rng.Intn(5); i++ {
		addrs = append(addrs, 0x1000+uint64(rng.Intn(8))*64+uint64(rng.Intn(3))*8)
	}
	for t := 1; t <= nThreads; t++ {
		b.Create(0, int32(t), "main.create")
	}
	for t := 1; t <= nThreads; t++ {
		tid := int32(t)
		for op := 0; op < 4+rng.Intn(14); op++ {
			addr := addrs[rng.Intn(len(addrs))]
			size := sizes[rng.Intn(len(sizes))]
			lock := uint64(1 + rng.Intn(nLocks))
			locked := rng.Intn(3) == 0
			if locked {
				b.Lock(tid, lock, "lock")
			}
			switch rng.Intn(6) {
			case 0:
				b.Store(tid, addr, size, "store")
			case 1:
				b.Store(tid, addr, size, "store")
				b.Persist(tid, addr, size, "persist")
			case 2:
				b.NTStore(tid, addr, size, "ntstore")
			case 3:
				// Raw flush/fence, possibly of a line this thread never
				// wrote — the cross-thread flush path.
				b.Flush(tid, addr, "flush")
				if rng.Intn(2) == 0 {
					b.Fence(tid, "fence")
				}
			case 4:
				b.Load(tid, addr, size, "load")
			default:
				// Overwrite: two stores to the same address back to back,
				// the second closing the first's window.
				b.Store(tid, addr, size, "store.first")
				b.Store(tid, addr, size, "store.second")
			}
			if locked {
				b.Unlock(tid, lock, "unlock")
			}
		}
		if rng.Intn(2) == 0 {
			b.Fence(tid, "fence.tail")
		}
	}
	for t := 1; t <= nThreads; t++ {
		b.Join(0, int32(t), "main.join")
	}
	return b.T
}

// renderOffline analyzes the whole trace at once and renders the document.
func renderOffline(t *testing.T, tr *trace.Trace, cfg hawkset.Config) []byte {
	t.Helper()
	doc := report.New(hawkset.Analyze(tr, cfg), "fuzz", "randDiffTrace", nil)
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatalf("offline WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// renderOnline feeds the trace event-by-event through a Stream and renders
// the document from Finish's result.
func renderOnline(t *testing.T, tr *trace.Trace, cfg hawkset.Config) []byte {
	t.Helper()
	st := hawkset.NewStream(tr.Sites, cfg)
	for e := range tr.Events() {
		if err := st.Feed(e); err != nil {
			t.Fatalf("Feed: %v", err)
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	doc := report.New(res, "fuzz", "randDiffTrace", nil)
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatalf("online WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestDifferentialStreamVsAnalyze: for random traces, the four combinations
// {offline, online} x {metrics off, metrics on} all produce byte-identical
// report documents. This is the side-band contract made executable: metrics
// may observe the analysis but never steer it, and the streaming pipeline is
// a pure refactoring of the batch one.
func TestDifferentialStreamVsAnalyze(t *testing.T) {
	for _, irh := range []bool{true, false} {
		irh := irh
		f := func(seed int64) bool {
			tr := randDiffTrace(rand.New(rand.NewSource(seed)))

			base := hawkset.DefaultConfig()
			base.IRH = irh
			offline := renderOffline(t, tr, base)
			online := renderOnline(t, tr, base)

			withMetrics := base
			withMetrics.Metrics = obs.NewRegistry()
			offlineM := renderOffline(t, tr, withMetrics)
			withMetrics.Metrics = obs.NewRegistry()
			onlineM := renderOnline(t, tr, withMetrics)

			return bytes.Equal(offline, online) &&
				bytes.Equal(offline, offlineM) &&
				bytes.Equal(offline, onlineM)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("irh=%v: %v", irh, err)
		}
	}
}

// TestDifferentialMetricsPopulated: the side-band snapshot actually carries
// the stage timings and counters the document deliberately omits.
func TestDifferentialMetricsPopulated(t *testing.T) {
	tr := randDiffTrace(rand.New(rand.NewSource(7)))
	cfg := hawkset.DefaultConfig()
	cfg.Metrics = obs.NewRegistry()
	renderOnline(t, tr, cfg)

	if n := cfg.Metrics.Counter("hawkset.replay.events").Value(); n == 0 {
		t.Error("hawkset.replay.events not counted")
	}
	if cfg.Metrics.Gauge("hawkset.replay.open_stores").Max() == 0 {
		t.Error("hawkset.replay.open_stores high-water never moved")
	}
	if cfg.Metrics.Histogram("hawkset.stage.analyze").Count() == 0 {
		t.Error("hawkset.stage.analyze never observed")
	}
	if cfg.Metrics.Histogram("hawkset.stage.replay").Count() == 0 {
		t.Error("hawkset.stage.replay never observed")
	}
}
