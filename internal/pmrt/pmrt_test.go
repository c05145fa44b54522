package pmrt

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"hawkset/internal/hawkset"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
)

func TestBasicStoreLoadRoundTrip(t *testing.T) {
	r := New(Config{Seed: 1, PoolSize: 1 << 16})
	err := r.Run(func(c *Ctx) {
		a := c.Alloc(64)
		c.Store8(a, 0x1122334455667788)
		if got := c.Load8(a); got != 0x1122334455667788 {
			t.Errorf("Load8 = %#x", got)
		}
		c.Store4(a+8, 0xabcd)
		if got := c.Load4(a + 8); got != 0xabcd {
			t.Errorf("Load4 = %#x", got)
		}
		c.Store1(a+12, 0x7f)
		if got := c.Load1(a + 12); got != 0x7f {
			t.Errorf("Load1 = %#x", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTraceRecordsOps(t *testing.T) {
	r := New(Config{Seed: 1, PoolSize: 1 << 16})
	m := r.NewMutex("m")
	err := r.Run(func(c *Ctx) {
		a := c.Alloc(64)
		c.Lock(m)
		c.Store8(a, 7)
		c.Persist(a, 8)
		c.Unlock(m)
		th := c.Spawn(func(c2 *Ctx) {
			c2.Lock(m)
			_ = c2.Load8(a)
			c2.Unlock(m)
		})
		c.Join(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := r.Trace.Counts()
	if counts[trace.KStore] != 1 || counts[trace.KLoad] != 1 ||
		counts[trace.KFlush] != 1 || counts[trace.KFence] != 1 ||
		counts[trace.KLockAcq] != 2 || counts[trace.KLockRel] != 2 ||
		counts[trace.KThreadCreate] != 1 || counts[trace.KThreadJoin] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestSiteCapture(t *testing.T) {
	r := New(Config{Seed: 1, PoolSize: 1 << 16})
	err := r.Run(func(c *Ctx) {
		a := c.Alloc(64)
		c.Store8(a, 1) // the site must be THIS line of THIS file
	})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for e := range r.Trace.Events() {
		if e.Kind == trace.KStore {
			fr := r.Trace.Sites.Lookup(e.Site)
			if strings.HasSuffix(fr.File, "pmrt_test.go") && strings.Contains(fr.Func, "TestSiteCapture") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("store event does not carry the application call site")
	}
}

// TestCtxMethodsCaptureOnFastPath calls every Ctx method that captures a
// site twice from the same lines. The second round must be answered entirely
// from the frame-pointer key: a Ctx method (or here) that got inlined would
// shift the physical frames and send its calls to the slow path for good.
func TestCtxMethodsCaptureOnFastPath(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("no frame-pointer key on " + runtime.GOARCH)
	}
	r := New(Config{Seed: 1, PoolSize: 1 << 16, InstrumentAllocs: true})
	m, rw := r.NewMutex("m"), r.NewRWMutex("rw")
	err := r.Run(func(c *Ctx) {
		sl := r.NewSpinLock(c, "sl")
		a := c.Alloc(64)
		for round := 0; round < 2; round++ {
			before := r.Trace.Sites.Counts()
			c.Store(a, []byte{1})
			c.Store8(a, 1)
			c.Store4(a, 1)
			c.Store1(a, 1)
			c.NTStore8(a, 1)
			c.Load(a, 1)
			c.Load8(a)
			c.Load4(a)
			c.Load1(a)
			c.Flush(a)
			c.Fence()
			c.Persist(a, 8)
			c.CAS8(a, 1, 2)
			c.Alloc(8)
			c.RecordAlloc(a, 8)
			c.Join(c.Spawn(func(*Ctx) {}))
			c.Lock(m)
			c.Unlock(m)
			c.TryLock(m)
			c.Unlock(m)
			c.RLock(rw)
			c.RUnlock(rw)
			c.WLock(rw)
			c.WUnlock(rw)
			c.SpinLock(sl)
			c.SpinUnlock(sl)
			// 29 captures: one per call above, plus the CAS8 inside SpinLock
			// and the Store8 inside SpinUnlock.
			after := r.Trace.Sites.Counts()
			if round == 1 && (after.Slow != before.Slow || after.Fast-before.Fast != 29) {
				t.Errorf("repeat round took the slow path: counts %+v -> %+v", before, after)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	r := New(Config{Seed: 99, PoolSize: 1 << 16})
	m := r.NewMutex("m")
	inside := 0
	maxInside := 0
	err := r.Run(func(c *Ctx) {
		var ths []*Thread
		for i := 0; i < 8; i++ {
			ths = append(ths, c.Spawn(func(c2 *Ctx) {
				for j := 0; j < 10; j++ {
					c2.Lock(m)
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					c2.Yield() // try to let others in
					inside--
					c2.Unlock(m)
				}
			}))
		}
		for _, th := range ths {
			c.Join(th)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("maxInside = %d, want 1 (mutual exclusion)", maxInside)
	}
}

func TestTryLock(t *testing.T) {
	r := New(Config{Seed: 1, PoolSize: 1 << 16})
	m := r.NewMutex("m")
	err := r.Run(func(c *Ctx) {
		if !c.TryLock(m) {
			t.Error("TryLock of free mutex failed")
		}
		th := c.Spawn(func(c2 *Ctx) {
			if c2.TryLock(m) {
				t.Error("TryLock of held mutex succeeded")
			}
		})
		c.Join(th)
		c.Unlock(m)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Failed TryLock must not emit a lock event.
	if got := r.Trace.Counts()[trace.KLockAcq]; got != 1 {
		t.Fatalf("lock events = %d, want 1", got)
	}
}

func TestRWMutex(t *testing.T) {
	r := New(Config{Seed: 5, PoolSize: 1 << 16})
	m := r.NewRWMutex("rw")
	readers := 0
	sawTwoReaders := false
	err := r.Run(func(c *Ctx) {
		var ths []*Thread
		for i := 0; i < 4; i++ {
			ths = append(ths, c.Spawn(func(c2 *Ctx) {
				c2.RLock(m)
				readers++
				if readers >= 2 {
					sawTwoReaders = true
				}
				c2.Yield()
				c2.Yield()
				readers--
				c2.RUnlock(m)
			}))
		}
		writerSawReaders := false
		w := c.Spawn(func(c2 *Ctx) {
			c2.WLock(m)
			if readers != 0 {
				writerSawReaders = true
			}
			c2.WUnlock(m)
		})
		for _, th := range ths {
			c.Join(th)
		}
		c.Join(w)
		if writerSawReaders {
			t.Error("writer ran with readers inside")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawTwoReaders {
		t.Fatal("readers never overlapped (RLock too strict)")
	}
}

func TestSpinLockExclusionAndTrace(t *testing.T) {
	r := New(Config{Seed: 11, PoolSize: 1 << 16})
	var sl *SpinLock
	inside, maxInside := 0, 0
	err := r.Run(func(c *Ctx) {
		sl = r.NewSpinLock(c, "sl")
		var ths []*Thread
		for i := 0; i < 4; i++ {
			ths = append(ths, c.Spawn(func(c2 *Ctx) {
				for j := 0; j < 5; j++ {
					c2.SpinLock(sl)
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					c2.Yield()
					inside--
					c2.SpinUnlock(sl)
				}
			}))
		}
		for _, th := range ths {
			c.Join(th)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("maxInside = %d", maxInside)
	}
	counts := r.Trace.Counts()
	if counts[trace.KLockAcq] != 20 || counts[trace.KLockRel] != 20 {
		t.Fatalf("lock events = %d/%d, want 20/20", counts[trace.KLockAcq], counts[trace.KLockRel])
	}
	// The CAS word accesses must also be visible as PM accesses.
	if counts[trace.KStore] == 0 || counts[trace.KLoad] == 0 {
		t.Fatal("spinlock CAS left no PM access events")
	}
}

func TestCAS8(t *testing.T) {
	r := New(Config{Seed: 1, PoolSize: 1 << 16})
	err := r.Run(func(c *Ctx) {
		a := c.Alloc(8)
		if !c.CAS8(a, 0, 42) {
			t.Error("CAS on expected value failed")
		}
		if c.CAS8(a, 0, 43) {
			t.Error("CAS on stale value succeeded")
		}
		if got := c.Load8(a); got != 42 {
			t.Errorf("value = %d", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrashImageSemantics(t *testing.T) {
	r := New(Config{Seed: 1, PoolSize: 1 << 16})
	var persisted, lost uint64
	err := r.Run(func(c *Ctx) {
		persisted = c.Alloc(8)
		lost = c.Alloc(8)
		c.Store8(persisted, 111)
		c.Persist(persisted, 8)
		c.Store8(lost, 222) // never flushed
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Pool.ReadPersistent8(persisted); got != 111 {
		t.Fatalf("persisted value in crash image = %d", got)
	}
	if got := r.Pool.ReadPersistent8(lost); got != 0 {
		t.Fatalf("unflushed value leaked into crash image: %d", got)
	}
}

func TestDeterministicTrace(t *testing.T) {
	run := func(seed int64) []trace.Event {
		r := New(Config{Seed: seed, PoolSize: 1 << 16})
		err := r.Run(func(c *Ctx) {
			a := c.Alloc(64)
			var ths []*Thread
			for i := 0; i < 4; i++ {
				off := uint64(i * 8)
				ths = append(ths, c.Spawn(func(c2 *Ctx) {
					for j := 0; j < 5; j++ {
						c2.Store8(a+off, uint64(j))
						c2.Persist(a+off, 8)
						_ = c2.Load8(a + (off+8)%32)
					}
				}))
			}
			for _, th := range ths {
				c.Join(th)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return slices.Collect(r.Trace.Events())
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestEndToEndFigure1c runs the paper's motivating example as a real program
// under the instrumented runtime and checks HawkSet reports it, closing the
// loop instrumentation → trace → analysis.
func TestEndToEndFigure1c(t *testing.T) {
	r := New(Config{Seed: 3, PoolSize: 1 << 16})
	m := r.NewMutex("A")
	err := r.Run(func(c *Ctx) {
		x := c.Alloc(8)
		t1 := c.Spawn(func(c1 *Ctx) {
			c1.Lock(m)
			c1.Store8(x, 99) // racy store: persist is outside the section
			c1.Unlock(m)
			c1.Persist(x, 8)
		})
		t2 := c.Spawn(func(c2 *Ctx) {
			c2.Lock(m)
			_ = c2.Load8(x)
			c2.Unlock(m)
		})
		c.Join(t1)
		c.Join(t2)
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hawkset.DefaultConfig()
	cfg.IRH = false
	res := hawkset.Analyze(r.Trace, cfg)
	found := false
	for _, rep := range res.Reports {
		if strings.Contains(rep.StoreFrame.Func, "TestEndToEndFigure1c") &&
			strings.Contains(rep.LoadFrame.Func, "TestEndToEndFigure1c") {
			found = true
		}
	}
	if !found {
		t.Fatalf("end-to-end Figure 1c race not reported; reports = %v", res.Reports)
	}
}

// TestEndToEndCorrectProgram: persist inside the critical section — no
// reports at all.
func TestEndToEndCorrectProgram(t *testing.T) {
	r := New(Config{Seed: 3, PoolSize: 1 << 16})
	m := r.NewMutex("A")
	err := r.Run(func(c *Ctx) {
		x := c.Alloc(8)
		t1 := c.Spawn(func(c1 *Ctx) {
			c1.Lock(m)
			c1.Store8(x, 99)
			c1.Persist(x, 8)
			c1.Unlock(m)
		})
		t2 := c.Spawn(func(c2 *Ctx) {
			c2.Lock(m)
			_ = c2.Load8(x)
			c2.Unlock(m)
		})
		c.Join(t1)
		c.Join(t2)
	})
	if err != nil {
		t.Fatal(err)
	}
	res := hawkset.Analyze(r.Trace, hawkset.DefaultConfig())
	if len(res.Reports) != 0 {
		t.Fatalf("correct program produced reports: %v", res.Reports)
	}
}

func TestEADRMode(t *testing.T) {
	r := New(Config{Seed: 3, PoolSize: 1 << 16, EADR: true})
	var x uint64
	err := r.Run(func(c *Ctx) {
		x = c.Alloc(8)
		c.Store8(x, 5) // no flush needed under eADR
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Pool.ReadPersistent8(x); got != 5 {
		t.Fatalf("eADR store not persistent: %d", got)
	}
}

func TestDirtyReadObserver(t *testing.T) {
	r := New(Config{Seed: 3, PoolSize: 1 << 16, NoTrace: true, TrackWriters: true})
	observed := 0
	r.OnDirtyRead = func(c *Ctx, loadSite sites.ID, addr uint64, size uint32, writer int32, storeSite sites.ID) {
		observed++
		if writer == c.TID() {
			t.Error("own store observed as dirty read")
		}
	}
	err := r.Run(func(c *Ctx) {
		x := c.Alloc(8)
		t1 := c.Spawn(func(c1 *Ctx) {
			c1.Store8(x, 1) // unpersisted
		})
		c.Join(t1)
		_ = c.Load8(x) // reads visible-but-unpersisted data from T1
		c.Persist(x, 8)
		_ = c.Load8(x) // persisted now: no observation
	})
	if err != nil {
		t.Fatal(err)
	}
	if observed != 1 {
		t.Fatalf("observed = %d dirty reads, want 1", observed)
	}
	if r.Trace.Len() != 0 {
		t.Fatalf("NoTrace runtime recorded %d events", r.Trace.Len())
	}
}

// TestEventSinkOnlineAnalysis wires a hawkset.Stream to the runtime: the
// streaming analysis over live events matches the offline analysis of the
// recorded trace, without retaining events.
func TestEventSinkOnlineAnalysis(t *testing.T) {
	r := New(Config{Seed: 3, PoolSize: 1 << 16})
	cfg := hawkset.DefaultConfig()
	cfg.IRH = false // two-access toy: publication-based pruning would hide it
	stream := hawkset.NewStream(r.Trace.Sites, cfg)
	r.EventSink = func(e trace.Event) {
		if err := stream.Feed(e); err != nil {
			t.Errorf("stream.Feed: %v", err)
		}
	}
	m := r.NewMutex("A")
	err := r.Run(func(c *Ctx) {
		x := c.Alloc(8)
		t1 := c.Spawn(func(c1 *Ctx) {
			c1.Lock(m)
			c1.Store8(x, 99)
			c1.Unlock(m)
			c1.Persist(x, 8)
		})
		t2 := c.Spawn(func(c2 *Ctx) {
			c2.Lock(m)
			_ = c2.Load8(x)
			c2.Unlock(m)
		})
		c.Join(t1)
		c.Join(t2)
	})
	if err != nil {
		t.Fatal(err)
	}
	online, err := stream.Finish()
	if err != nil {
		t.Fatalf("stream.Finish: %v", err)
	}
	offline := hawkset.Analyze(r.Trace, cfg)
	if len(online.Reports) != len(offline.Reports) {
		t.Fatalf("online %d reports, offline %d", len(online.Reports), len(offline.Reports))
	}
	if len(online.Reports) == 0 {
		t.Fatal("online analysis missed the Figure 1c race")
	}
}

// TestBacktraceMode: with Config.Backtraces the recorded site carries the
// call chain, so a race report shows how the access was reached.
func TestBacktraceMode(t *testing.T) {
	r := New(Config{Seed: 1, PoolSize: 1 << 16, Backtraces: true})
	err := r.Run(func(c *Ctx) {
		a := c.Alloc(8)
		storeThroughHelper(c, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for e := range r.Trace.Events() {
		if e.Kind == trace.KStore {
			fr := r.Trace.Sites.Lookup(e.Site)
			if strings.Contains(fr.Func, "storeThroughHelper") && strings.Contains(fr.Func, "TestBacktraceMode") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("backtrace mode did not record the call chain")
	}
}

func storeThroughHelper(c *Ctx, a uint64) { c.Store8(a, 7) }

// TestPersistBoundAtPoolTop: Persist over a range whose last byte is the
// pool's final byte must flush every covered line (regression for the
// addition-form line bound addr+size-1, the wraparound class PR 1 fixed in
// the analysis side).
func TestPersistBoundAtPoolTop(t *testing.T) {
	const pool = 1 << 16
	r := New(Config{Seed: 1, PoolSize: pool})
	err := r.Run(func(c *Ctx) {
		addr := uint64(pool - 128)
		for i := uint64(0); i < 128; i += 8 {
			c.Store8(addr+i, 0xdead<<8|i)
		}
		c.Persist(addr, 128) // ends exactly at the pool top
		if !r.Pool.Persisted(addr, 128) {
			t.Error("Persist over range ending at pool top left bytes unpersisted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestZeroUnfencedDroppedOnCrash pins Zero's contract: it is an untraced
// dirty-line write, so under the worst-case cache model a crash before a
// covering persist drops the zeroes and the pre-Zero bytes survive.
func TestZeroUnfencedDroppedOnCrash(t *testing.T) {
	r := New(Config{Seed: 1, PoolSize: 1 << 16})
	var a uint64
	err := r.Run(func(c *Ctx) {
		a = c.Alloc(64)
		c.Store8(a, 0x1111111111111111)
		c.Store8(a+8, 0x2222222222222222)
		c.Persist(a, 16)
		c.Zero(a, 16) // visible immediately...
		if got := c.Load8(a); got != 0 {
			t.Errorf("volatile view after Zero = %#x, want 0", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// ...but not persistent: the crash image keeps the old contents.
	if got := r.Pool.ReadPersistent8(a); got != 0x1111111111111111 {
		t.Errorf("crash image word 0 = %#x, want pre-Zero 0x1111111111111111", got)
	}
	if got := r.Pool.ReadPersistent8(a + 8); got != 0x2222222222222222 {
		t.Errorf("crash image word 1 = %#x, want pre-Zero 0x2222222222222222", got)
	}

	// A covering Persist makes the zeroes durable.
	r2 := New(Config{Seed: 1, PoolSize: 1 << 16})
	err = r2.Run(func(c *Ctx) {
		a = c.Alloc(64)
		c.Store8(a, 0x3333333333333333)
		c.Persist(a, 8)
		c.Zero(a, 8)
		c.Persist(a, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Pool.ReadPersistent8(a); got != 0 {
		t.Errorf("crash image after Zero+Persist = %#x, want 0", got)
	}
}

// TestZeroEmitsNoTraceEvent pins the observability half of Zero's contract:
// no event reaches the trace or the EventSink.
func TestZeroEmitsNoTraceEvent(t *testing.T) {
	r := New(Config{Seed: 1, PoolSize: 1 << 16})
	sunk := 0
	r.EventSink = func(e trace.Event) { sunk++ }
	err := r.Run(func(c *Ctx) {
		a := c.Alloc(64)
		before := r.Trace.Len()
		beforeSunk := sunk
		c.Zero(a, 64)
		if got := r.Trace.Len() - before; got != 0 {
			t.Errorf("Zero appended %d trace events, want 0", got)
		}
		if got := sunk - beforeSunk; got != 0 {
			t.Errorf("Zero emitted %d sink events, want 0", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
