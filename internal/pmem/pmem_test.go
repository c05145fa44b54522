package pmem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStoreVisibleImmediately(t *testing.T) {
	p := New(4096, Options{})
	p.Store(1, 100, []byte{1, 2, 3}, 0)
	buf := make([]byte, 3)
	p.Load(100, buf)
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Fatalf("load after store = %v", buf)
	}
}

func TestStoreNotPersistedWithoutFlushFence(t *testing.T) {
	p := New(4096, Options{})
	p.Store(1, 100, []byte{0xaa}, 0)
	if p.Persisted(100, 1) {
		t.Fatal("unflushed store reported persisted")
	}
	img := p.Crash()
	if img[100] != 0 {
		t.Fatalf("crash image contains unflushed store: %#x", img[100])
	}
}

func TestFlushAloneDoesNotPersist(t *testing.T) {
	p := New(4096, Options{})
	p.Store(1, 100, []byte{0xaa}, 0)
	p.Flush(1, 100)
	if p.Persisted(100, 1) {
		t.Fatal("flush without fence reported persisted (worst-case cache must wait for fence)")
	}
}

func TestFlushFencePersists(t *testing.T) {
	p := New(4096, Options{})
	p.Store(1, 100, []byte{0xaa}, 0)
	p.Flush(1, 100)
	p.Fence(1)
	if !p.Persisted(100, 1) {
		t.Fatal("flush+fence did not persist")
	}
	if img := p.Crash(); img[100] != 0xaa {
		t.Fatalf("crash image = %#x, want 0xaa", img[100])
	}
}

func TestFenceOnlyCompletesOwnThreadsFlushes(t *testing.T) {
	p := New(4096, Options{})
	p.Store(1, 100, []byte{0xaa}, 0)
	p.Flush(1, 100)
	p.Fence(2) // another thread's fence does not order T1's flush
	if p.Persisted(100, 1) {
		t.Fatal("T2's fence persisted T1's pending flush")
	}
	p.Fence(1)
	if !p.Persisted(100, 1) {
		t.Fatal("T1's fence did not complete its flush")
	}
}

func TestStoreAfterFlushNotCovered(t *testing.T) {
	p := New(4096, Options{})
	p.Store(1, 100, []byte{0x01}, 0)
	p.Flush(1, 100)
	p.Store(1, 100, []byte{0x02}, 0) // after the flush snapshot
	p.Fence(1)
	if p.Crash()[100] != 0x01 {
		t.Fatalf("crash image = %#x, want the flushed snapshot 0x01", p.Crash()[100])
	}
	if p.Persisted(100, 1) {
		t.Fatal("re-dirtied byte reported persisted")
	}
}

func TestFlushCoversWholeLine(t *testing.T) {
	p := New(4096, Options{})
	p.Store(1, 128, []byte{0x11}, 0)
	p.Store(2, 160, []byte{0x22}, 0) // same line, different thread
	p.Flush(1, 130)                  // any address within the line
	p.Fence(1)
	img := p.Crash()
	if img[128] != 0x11 || img[160] != 0x22 {
		t.Fatalf("line flush missed bytes: %#x %#x", img[128], img[160])
	}
}

func TestNTStoreNeedsFenceOnly(t *testing.T) {
	p := New(4096, Options{})
	p.NTStore(1, 200, []byte{5, 6, 7, 8, 9, 10, 11, 12}, 0)
	if p.Persisted(200, 8) {
		t.Fatal("ntstore persisted before fence")
	}
	p.Fence(1)
	if !p.Persisted(200, 8) {
		t.Fatal("ntstore+fence did not persist")
	}
}

func TestDirtyRead(t *testing.T) {
	p := New(4096, Options{TrackWriters: true})
	p.Store(3, 100, []byte{1}, 42)
	if _, _, ok := p.DirtyRead(3, 100, 1); ok {
		t.Fatal("own store reported as dirty read")
	}
	writer, site, ok := p.DirtyRead(5, 100, 1)
	if !ok || writer != 3 || site != 42 {
		t.Fatalf("DirtyRead = (%d,%d,%v), want (3,42,true)", writer, site, ok)
	}
	p.Flush(3, 100)
	p.Fence(3)
	if _, _, ok := p.DirtyRead(5, 100, 1); ok {
		t.Fatal("persisted store reported as dirty read")
	}
}

func TestEADRPersistsOnStore(t *testing.T) {
	p := New(4096, Options{EADR: true, TrackWriters: true})
	p.Store(1, 100, []byte{0x77}, 0)
	if !p.Persisted(100, 1) {
		t.Fatal("eADR store not immediately persistent")
	}
	if _, _, ok := p.DirtyRead(2, 100, 1); ok {
		t.Fatal("eADR store observed as dirty read")
	}
}

func TestStore8RoundTrip(t *testing.T) {
	p := New(4096, Options{})
	p.Store8(1, 64, 0xdeadbeefcafebabe, 0)
	if got := p.Load8(64); got != 0xdeadbeefcafebabe {
		t.Fatalf("Load8 = %#x", got)
	}
	p.FlushRange(1, 64, 8)
	p.Fence(1)
	if got := p.ReadPersistent8(64); got != 0xdeadbeefcafebabe {
		t.Fatalf("ReadPersistent8 = %#x", got)
	}
}

func TestDirtyLinesAccounting(t *testing.T) {
	p := New(4096, Options{})
	if p.DirtyLines() != 0 {
		t.Fatal("fresh pool dirty")
	}
	p.Store(1, 0, []byte{1}, 0)
	p.Store(1, 1000, []byte{1}, 0)
	if p.DirtyLines() != 2 {
		t.Fatalf("DirtyLines = %d, want 2", p.DirtyLines())
	}
	p.Flush(1, 0)
	p.Flush(1, 1000)
	p.Fence(1)
	if p.DirtyLines() != 0 {
		t.Fatalf("DirtyLines after persist = %d, want 0", p.DirtyLines())
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds store did not panic")
		}
	}()
	p := New(64, Options{})
	p.Store(1, 60, []byte{1, 2, 3, 4, 5, 6, 7, 8}, 0)
}

// Property: persisted data always survives a crash; data stored but never
// flushed+fenced never appears in the crash image.
func TestCrashConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(1<<12, Options{})
		type write struct {
			addr      uint64
			val       byte
			persisted bool
		}
		persistedVal := make(map[uint64]byte) // last fenced snapshot value per addr
		var writes []write
		for i := 0; i < 200; i++ {
			switch rng.Intn(3) {
			case 0:
				addr := uint64(rng.Intn(1 << 12))
				val := byte(rng.Intn(255) + 1)
				p.Store(1, addr, []byte{val}, 0)
				writes = append(writes, write{addr: addr, val: val})
			case 1:
				if len(writes) > 0 {
					w := writes[rng.Intn(len(writes))]
					p.Flush(1, w.addr)
				}
			case 2:
				p.Fence(1)
			}
		}
		// Persist everything we know about and record expectations.
		for _, w := range writes {
			_ = w
		}
		img := p.Crash()
		// Every byte in the crash image must be either zero (never persisted)
		// or some value that was stored at that address at some point.
		valid := make(map[uint64]map[byte]bool)
		for _, w := range writes {
			if valid[w.addr] == nil {
				valid[w.addr] = map[byte]bool{0: true}
			}
			valid[w.addr][w.val] = true
		}
		for addr, vs := range valid {
			if !vs[img[addr]] {
				return false
			}
		}
		_ = persistedVal
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: after FlushRange+Fence of a range with no intervening stores,
// the whole range is persisted.
func TestPersistRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(1<<12, Options{})
		addr := uint64(rng.Intn(1 << 11))
		size := uint64(rng.Intn(256) + 1)
		data := make([]byte, size)
		rng.Read(data)
		p.Store(1, addr, data, 0)
		p.FlushRange(1, addr, size)
		p.Fence(1)
		return p.Persisted(addr, size) && bytes.Equal(p.Crash()[addr:addr+size], data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBackgroundEviction(t *testing.T) {
	p := New(4096, Options{EvictAfter: 10})
	p.Store(1, 100, []byte{0xaa}, 0)
	if p.Persisted(100, 1) {
		t.Fatal("store persisted immediately despite EvictAfter")
	}
	// Drive the device clock past the eviction age with unrelated loads.
	buf := make([]byte, 1)
	for i := 0; i < 20; i++ {
		p.Load(2000, buf)
	}
	if !p.Persisted(100, 1) {
		t.Fatal("dirty line not evicted after EvictAfter operations")
	}
	if _, _, ok := p.DirtyRead(2, 100, 1); ok {
		t.Fatal("evicted line still observable as dirty read")
	}
}

func TestNoEvictionByDefault(t *testing.T) {
	p := New(4096, Options{})
	p.Store(1, 100, []byte{0xaa}, 0)
	buf := make([]byte, 1)
	for i := 0; i < 1000; i++ {
		p.Load(2000, buf)
	}
	if p.Persisted(100, 1) {
		t.Fatal("worst-case cache must never evict on its own")
	}
}

func TestEvictionWritesBackCurrentContent(t *testing.T) {
	p := New(4096, Options{EvictAfter: 5})
	p.Store(1, 100, []byte{0x01}, 0)
	p.Store(1, 100, []byte{0x02}, 0) // re-dirty before eviction
	buf := make([]byte, 1)
	for i := 0; i < 10; i++ {
		p.Load(2000, buf)
	}
	if img := p.Crash(); img[100] != 0x02 {
		t.Fatalf("eviction wrote back stale data: %#x", img[100])
	}
}

func TestReboot(t *testing.T) {
	p := New(4096, Options{TrackWriters: true})
	p.Store(1, 100, []byte{0xaa}, 7) // persisted below
	p.Flush(1, 100)
	p.Fence(1)
	p.Store(2, 200, []byte{0xbb}, 8) // volatile only
	p.Flush(2, 300)                  // pending, never fenced

	p.Reboot()

	buf := make([]byte, 1)
	p.Load(100, buf)
	if buf[0] != 0xaa {
		t.Fatal("persisted data lost across reboot")
	}
	p.Load(200, buf)
	if buf[0] != 0 {
		t.Fatal("volatile data survived the crash")
	}
	if p.DirtyLines() != 0 {
		t.Fatalf("dirty lines after reboot: %d", p.DirtyLines())
	}
	if _, _, ok := p.DirtyRead(9, 100, 1); ok {
		t.Fatal("stale dirty-read attribution after reboot")
	}
	// The device keeps working: the pre-crash pending flush must not
	// resurrect at the next fence.
	p.Fence(2)
	p.Load(300, buf)
	if buf[0] != 0 {
		t.Fatal("pre-crash pending flush landed after reboot")
	}
}

// --- address-space-top wraparound regressions (same bug class PR 1 fixed in
// --- the analysis's overlaps/linesOf/spansLines) ---

func TestLastByteClamps(t *testing.T) {
	max := ^uint64(0)
	cases := []struct{ addr, size, want uint64 }{
		{0, 1, 0},
		{100, 8, 107},
		{max, 1, max},           // addition form would wrap to 0
		{max - 63, 64, max},     // range ending exactly at the top
		{max - 63, 128, max},    // overlong range clamps instead of wrapping
		{max, max, max},         // pathological size clamps
		{4096 - 8, 8, 4096 - 1}, // in-pool range ending at pool top
	}
	for _, c := range cases {
		if got := LastByte(c.addr, c.size); got != c.want {
			t.Errorf("LastByte(%#x, %#x) = %#x, want %#x", c.addr, c.size, got, c.want)
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected out-of-bounds panic, got none", what)
		}
	}()
	fn()
}

// TestTopOfAddressSpaceAccessPanics: before the subtraction-form bounds, an
// access near the top of the 64-bit address space wrapped int(addr)+n
// negative inside check and the addition-form line loop in FlushRange wrapped
// last below first — a silent no-op instead of a bounds panic.
func TestTopOfAddressSpaceAccessPanics(t *testing.T) {
	max := ^uint64(0)
	p := New(4096, Options{})
	mustPanic(t, "Store at top of address space", func() {
		p.Store(1, max-7, make([]byte, 8), 0)
	})
	mustPanic(t, "FlushRange at top of address space", func() {
		p.FlushRange(1, max-63, 128)
	})
	mustPanic(t, "FlushRange wrapping to zero", func() {
		p.FlushRange(1, max-127, 128) // addr+size == 0 exactly
	})
	mustPanic(t, "Load at top of address space", func() {
		buf := make([]byte, 16)
		p.Load(max-3, buf)
	})
	mustPanic(t, "FlushRange size overflowing int", func() {
		p.FlushRange(1, 0, max)
	})
}

// TestRangeEndingAtPoolTop: ranges whose last byte is the pool's final byte
// must round-trip through store/flush/fence, including the Fence-side
// dirty-line recheck loop.
func TestRangeEndingAtPoolTop(t *testing.T) {
	const size = 4096
	p := New(size, Options{})
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	p.Store(1, size-8, data, 0)
	p.FlushRange(1, size-8, 8)
	p.Fence(1)
	if !p.Persisted(size-8, 8) {
		t.Fatal("range ending at pool top not persisted after flush+fence")
	}
	if img := p.Crash(); !bytes.Equal(img[size-8:], data) {
		t.Fatalf("crash image tail = %v, want %v", img[size-8:], data)
	}
	if p.DirtyLines() != 0 {
		t.Fatalf("DirtyLines = %d after fence recheck, want 0", p.DirtyLines())
	}
}

// TestOddSizedPoolLastLine runs a pool whose size is not a multiple of
// 4 KiB, the span of one word of the dirty-line bitset: its last line is
// partial and sits in a partly used word. A store across the last two lines
// dirties both, and each flush and fence cleans only its own line.
func TestOddSizedPoolLastLine(t *testing.T) {
	const size = 2*4096 + 3*LineSize + 20 // 132 lines, the last 20 bytes
	p := New(size, Options{})
	data := make([]byte, 30)
	for i := range data {
		data[i] = byte(i + 1)
	}
	addr := uint64(size - len(data))
	p.Store(1, addr, data, 0)
	if p.DirtyLines() != 2 || p.Persisted(addr, 30) {
		t.Fatalf("after the store: DirtyLines = %d, Persisted = %v; want 2, false", p.DirtyLines(), p.Persisted(addr, 30))
	}
	p.Flush(1, size-1)
	p.Fence(1)
	if p.DirtyLines() != 1 || !p.Persisted(size-20, 20) || p.Persisted(addr, 10) {
		t.Fatalf("after persisting the last line: DirtyLines = %d, want 1 with only the last 20 bytes persisted", p.DirtyLines())
	}
	p.Flush(1, addr)
	p.Fence(1)
	if p.DirtyLines() != 0 {
		t.Fatalf("DirtyLines = %d after persisting both lines, want 0", p.DirtyLines())
	}
	if img := p.Crash(); !bytes.Equal(img[addr:], data) {
		t.Fatalf("crash image tail = %v, want %v", img[addr:], data)
	}
}

func TestEmptyStoreIsNoOp(t *testing.T) {
	p := New(4096, Options{})
	p.Store(1, 0, nil, 0) // must not wrap the line loop via size-1
	if p.DirtyLines() != 0 {
		t.Fatalf("empty store dirtied %d lines", p.DirtyLines())
	}
}

// The idempotence contract pmopt's eliminations rest on: flushing an
// already-persistent (clean) line snapshots content identical to the
// persistent image, so the flush+fence is a device-level no-op — the crash
// image, dirty-line accounting and Persisted verdicts are unchanged.

func TestDoubleFlushOfCleanLineIsNoOp(t *testing.T) {
	p := New(4096, Options{})
	p.Store(1, 128, []byte{1, 2, 3, 4}, 0)
	p.Flush(1, 128)
	p.Fence(1)
	before := p.Crash()
	dirtyBefore := p.DirtyLines()

	// The line is now clean; flush+fence it again (twice, from two threads).
	p.Flush(1, 128)
	p.Fence(1)
	p.Flush(2, 130)
	p.Fence(2)

	if !bytes.Equal(p.Crash(), before) {
		t.Error("re-flushing a clean line changed the crash image")
	}
	if p.DirtyLines() != dirtyBefore {
		t.Errorf("dirty lines %d after clean-line flush, want %d", p.DirtyLines(), dirtyBefore)
	}
	if !p.Persisted(128, 4) {
		t.Error("clean-line flush lost the Persisted verdict")
	}
}

func TestDoubleFlushSameBatchIsNoOp(t *testing.T) {
	// Two flushes of the same line before one fence: the second snapshot is
	// identical to the first (no intervening store), so applying both at the
	// fence equals applying one.
	p1 := New(4096, Options{})
	p2 := New(4096, Options{})
	for _, p := range []*Pool{p1, p2} {
		p.Store(1, 256, []byte{0xde, 0xad}, 0)
		p.Flush(1, 256)
	}
	p2.Flush(1, 256) // the redundant duplicate
	p1.Fence(1)
	p2.Fence(1)
	if !bytes.Equal(p1.Crash(), p2.Crash()) {
		t.Error("duplicate flush in one batch changed the crash image")
	}
	if p1.DirtyLines() != p2.DirtyLines() {
		t.Error("duplicate flush in one batch changed dirty-line accounting")
	}
}

func TestFlushRangeIdempotent(t *testing.T) {
	// FlushRange over a multi-line clean range is a no-op, and repeating a
	// FlushRange+Fence of dirty data converges to the same image as doing it
	// once.
	once := New(4096, Options{})
	twice := New(4096, Options{})
	data := make([]byte, 200) // spans 4 lines from addr 60
	for i := range data {
		data[i] = byte(i * 7)
	}
	for _, p := range []*Pool{once, twice} {
		p.Store(1, 60, data, 0)
		p.FlushRange(1, 60, 200)
		p.Fence(1)
	}
	twice.FlushRange(1, 60, 200) // all-clean range
	twice.Fence(1)
	twice.FlushRange(2, 60, 200) // and from a thread with no pending state
	twice.Fence(2)
	if !bytes.Equal(once.Crash(), twice.Crash()) {
		t.Error("repeated FlushRange+Fence of a clean range changed the crash image")
	}
	if got := twice.DirtyLines(); got != 0 {
		t.Errorf("clean range re-flush left %d dirty lines", got)
	}
	if !twice.Persisted(60, 200) {
		t.Error("clean range re-flush lost the Persisted verdict")
	}
}

func TestCleanLineFlushDoesNotCoverLaterStore(t *testing.T) {
	// The no-op claim is only about the snapshot content: a clean-line flush
	// still snapshots at flush time, so a store issued AFTER it is not
	// covered by the later fence — eliding such a flush is behavior-neutral.
	p := New(4096, Options{})
	p.Store(1, 512, []byte{0x11}, 0)
	p.Flush(1, 512)
	p.Fence(1)
	p.Flush(1, 512)                  // clean-line flush
	p.Store(1, 512, []byte{0x22}, 0) // re-dirty after the snapshot
	p.Fence(1)
	if img := p.Crash(); img[512] != 0x11 {
		t.Fatalf("crash image = %#x, want pre-store 0x11 (flush-before-store must not cover it)", img[512])
	}
	if p.Persisted(512, 1) {
		t.Fatal("store after clean-line flush reported persisted")
	}
}
