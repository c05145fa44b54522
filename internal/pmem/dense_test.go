package pmem

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"hawkset/internal/obs"
)

// This file keeps the device as it was before the page table: two flat
// byte arrays of the full pool size, and under TrackWriters two int32
// arrays with one entry per byte. It is the test-only reference the sparse
// Pool is held to (FuzzPoolVsDense, TestAppJournalsVsDense). Its code is
// the old Pool's and Replayer's, unchanged apart from the names densePool,
// newDensePool and denseReplayer, and without the methods these tests do
// not call (View, Pos, Pool and AdvanceTo).

// densePool is a simulated PM device.
type densePool struct {
	opts       Options
	volatile   []byte
	persistent []byte
	// lastWriter / lastSite record, per byte, the thread and call site of the
	// most recent store while that byte is unpersisted. Used by the
	// observation-based baseline (internal/baseline/pmrace) to detect
	// dirty reads the way PMRace does.
	lastWriter []int32
	lastSite   []int32
	// dirty has one bit per line, ceil(size/LineSize) of them, set while
	// the line's volatile and persistent bytes may differ; ndirty counts
	// the set bits.
	dirty   []uint64
	ndirty  int
	pending map[int32]*snapshots // per thread, reused across fences

	// Background-eviction state (Options.EvictAfter).
	clock      uint64
	evictQueue []evictEntry

	// Commit observation, set only on a Replayer's pool: new snapshots are
	// stamped with snapPos, and Fence appends what it commits to commits.
	observe bool
	snapPos int
	commits []Commit

	// Side-band metric handles (nil when Options.Metrics is unset).
	mStores     *obs.Counter
	mNTStores   *obs.Counter
	mStoreBytes *obs.Counter
	mFlushes    *obs.Counter
	mFences     *obs.Counter
	mEvictions  *obs.Counter
	mDirtyLines *obs.Gauge
}

// newDensePool creates a densePool of the given size in bytes,
// zero-filled and fully persisted.
func newDensePool(size uint64, opts Options) *densePool {
	lines := (size + LineSize - 1) / LineSize
	p := &densePool{
		opts:        opts,
		volatile:    make([]byte, size),
		persistent:  make([]byte, size),
		dirty:       make([]uint64, (lines+63)/64),
		pending:     make(map[int32]*snapshots),
		mStores:     opts.Metrics.Counter("pmem.stores"),
		mNTStores:   opts.Metrics.Counter("pmem.ntstores"),
		mStoreBytes: opts.Metrics.Counter("pmem.store_bytes"),
		mFlushes:    opts.Metrics.Counter("pmem.flushes"),
		mFences:     opts.Metrics.Counter("pmem.fences"),
		mEvictions:  opts.Metrics.Counter("pmem.evictions"),
		mDirtyLines: opts.Metrics.Gauge("pmem.dirty_lines"),
	}
	if opts.TrackWriters {
		p.lastWriter = make([]int32, size)
		p.lastSite = make([]int32, size)
	}
	return p
}

// Size returns the pool size in bytes.
func (p *densePool) Size() uint64 { return uint64(len(p.volatile)) }

func (p *densePool) check(addr Addr, n int) {
	// Subtraction form: int(addr)+n wraps negative for addresses near the
	// top of the address space and silently passes the comparison.
	if n < 0 || addr > p.Size() || uint64(n) > p.Size()-addr {
		panic(fmt.Sprintf("pmem: access [%#x,%#x) out of pool bounds %#x", addr, addr+uint64(n), len(p.volatile)))
	}
}

// Store writes data to the volatile view on behalf of tid, dirtying the
// covered lines. site identifies the program location of the store for
// dirty-read attribution.
func (p *densePool) Store(tid int32, addr Addr, data []byte, site int32) {
	p.check(addr, len(data))
	if len(data) == 0 {
		return
	}
	p.mStores.Inc()
	p.mStoreBytes.Add(uint64(len(data)))
	p.tick()
	copy(p.volatile[addr:], data)
	if p.opts.EADR {
		copy(p.persistent[addr:], data)
		return
	}
	if p.lastWriter != nil {
		for i := range data {
			p.lastWriter[addr+uint64(i)] = tid
			p.lastSite[addr+uint64(i)] = site
		}
	}
	for l, last := LineOf(addr), LineOf(LastByte(addr, uint64(len(data)))); l <= last; l++ {
		if !p.isDirty(l) {
			p.dirty[l/64] |= 1 << (l % 64)
			p.ndirty++
		}
		if p.opts.EvictAfter > 0 {
			p.evictQueue = append(p.evictQueue, evictEntry{line: l, at: p.clock})
		}
	}
	p.mDirtyLines.Set(int64(p.ndirty))
}

// isDirty reports whether line l's bit is set.
func (p *densePool) isDirty(l uint64) bool { return p.dirty[l/64]&(1<<(l%64)) != 0 }

// clean clears the bit of line l, which must be set.
func (p *densePool) clean(l uint64) {
	p.dirty[l/64] &^= 1 << (l % 64)
	p.ndirty--
}

// tick advances the device clock and performs due background evictions.
func (p *densePool) tick() {
	p.clock++
	if p.opts.EvictAfter <= 0 {
		return
	}
	for len(p.evictQueue) > 0 && p.clock-p.evictQueue[0].at >= uint64(p.opts.EvictAfter) {
		e := p.evictQueue[0]
		p.evictQueue = p.evictQueue[1:]
		if !p.isDirty(e.line) {
			continue
		}
		base := e.line * LineSize
		end := base + LineSize
		if end > p.Size() {
			end = p.Size()
		}
		copy(p.persistent[base:end], p.volatile[base:end])
		p.clean(e.line)
		p.mEvictions.Inc()
		p.mDirtyLines.Set(int64(p.ndirty))
	}
}

// NTStore performs a non-temporal store: the data bypasses the cache and is
// queued for persistence, but ordering (and thus the persistence guarantee)
// still requires a fence from the same thread.
func (p *densePool) NTStore(tid int32, addr Addr, data []byte, site int32) {
	p.mNTStores.Inc()
	p.Store(tid, addr, data, site)
	if p.opts.EADR {
		return
	}
	p.snapshot(tid, addr, data)
}

// snapshot appends a copy of data, taken at addr, to tid's pending batch.
func (p *densePool) snapshot(tid int32, addr Addr, data []byte) {
	s := p.pending[tid]
	if s == nil {
		s = new(snapshots)
		p.pending[tid] = s
	}
	s.batch = append(s.batch, pendingFlush{addr: addr, off: len(s.data), n: len(data), pos: p.snapPos})
	s.data = append(s.data, data...)
}

// Load copies the current volatile contents at addr into buf.
func (p *densePool) Load(addr Addr, buf []byte) {
	p.check(addr, len(buf))
	p.tick()
	copy(buf, p.volatile[addr:])
}

// Flush issues a CLWB for the line containing addr on behalf of tid: the
// line's current contents are snapshotted and will enter the persistent
// domain at tid's next fence. Stores after the flush are not covered.
func (p *densePool) Flush(tid int32, addr Addr) {
	p.check(addr, 1)
	p.mFlushes.Inc()
	if p.opts.EADR {
		return
	}
	line := LineOf(addr)
	base := line * LineSize
	end := base + LineSize
	if end > p.Size() {
		end = p.Size()
	}
	p.snapshot(tid, base, p.volatile[base:end])
}

// FlushRange issues flushes for every line overlapping [addr, addr+size).
func (p *densePool) FlushRange(tid int32, addr Addr, size uint64) {
	if size == 0 {
		return
	}
	if size > uint64(^uint(0)>>1) {
		panic(fmt.Sprintf("pmem: FlushRange size %#x overflows", size))
	}
	p.check(addr, int(size))
	for l, last := LineOf(addr), LineOf(LastByte(addr, size)); l <= last; l++ {
		p.Flush(tid, l*LineSize)
	}
}

// Fence completes tid's pending flushes: every snapshot taken by an earlier
// Flush or NTStore from tid enters the persistent domain, in issue order.
// Bytes that were re-dirtied after their snapshot remain dirty.
func (p *densePool) Fence(tid int32) {
	p.mFences.Inc()
	if p.opts.EADR {
		return
	}
	s := p.pending[tid]
	if s == nil || len(s.batch) == 0 {
		return
	}
	for _, pf := range s.batch {
		data := s.data[pf.off : pf.off+pf.n]
		dst := p.persistent[pf.addr : pf.addr+uint64(pf.n)]
		if p.observe {
			p.commits = append(p.commits, Commit{Pos: pf.pos, Addr: pf.addr, Size: uint64(pf.n),
				Changed: !bytes.Equal(dst, data)})
		}
		copy(dst, data)
	}
	// Re-check only the lines this fence touched; lines not covered by one
	// of its flushes cannot have become clean.
	for _, pf := range s.batch {
		if pf.n == 0 {
			continue
		}
		last := LineOf(LastByte(pf.addr, uint64(pf.n)))
		for l := LineOf(pf.addr); l <= last; l++ {
			if !p.isDirty(l) {
				continue
			}
			base := l * LineSize
			end := base + LineSize
			if end > p.Size() {
				end = p.Size()
			}
			if bytes.Equal(p.volatile[base:end], p.persistent[base:end]) {
				p.clean(l)
			}
		}
	}
	s.batch, s.data = s.batch[:0], s.data[:0]
	p.mDirtyLines.Set(int64(p.ndirty))
}

// Persisted reports whether every byte of [addr, addr+size) is guaranteed to
// be in the persistent domain (volatile and persistent views agree).
func (p *densePool) Persisted(addr Addr, size uint64) bool {
	p.check(addr, int(size))
	return bytes.Equal(p.volatile[addr:addr+size], p.persistent[addr:addr+size])
}

// DirtyRead reports whether a load of [addr, addr+size) by tid would observe
// data that is visible but not guaranteed persistent and was written by a
// different thread — PMRace's "PM Inter-thread Inconsistency" observation.
// It returns the writing thread and the store's call site for the first such
// byte. Requires Options.TrackWriters; otherwise it reports nothing.
func (p *densePool) DirtyRead(tid int32, addr Addr, size uint64) (writer, site int32, ok bool) {
	if p.lastWriter == nil {
		return 0, 0, false
	}
	p.check(addr, int(size))
	for i := addr; i < addr+size; i++ {
		if p.volatile[i] != p.persistent[i] && p.lastWriter[i] != tid {
			return p.lastWriter[i], p.lastSite[i], true
		}
	}
	return 0, 0, false
}

// Crash returns a copy of the persistent view: the post-crash image with all
// unpersisted cache contents lost.
func (p *densePool) Crash() []byte {
	img := make([]byte, len(p.persistent))
	copy(img, p.persistent)
	return img
}

// DirtyLines returns the number of lines that may differ between the
// volatile and persistent views (an upper bound; cleaned lazily on fences).
func (p *densePool) DirtyLines() int { return p.ndirty }

// Typed helpers (little-endian, matching x86).

// Store8 writes a uint64.
func (p *densePool) Store8(tid int32, addr Addr, v uint64, site int32) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	p.Store(tid, addr, b[:], site)
}

// Load8 reads a uint64 from the volatile view.
func (p *densePool) Load8(addr Addr) uint64 {
	var b [8]byte
	p.Load(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// ReadPersistent8 reads a uint64 from the persistent view (post-crash
// inspection; not an instrumented access).
func (p *densePool) ReadPersistent8(addr Addr) uint64 {
	p.check(addr, 8)
	return binary.LittleEndian.Uint64(p.persistent[addr:])
}

// Reboot simulates a crash and restart on the same device: the volatile
// domain (cache, store buffer) is lost, so the visible contents become
// exactly the persistent view, and all dirty/pending state clears. The pool
// is then ready for a recovery run.
func (p *densePool) Reboot() {
	copy(p.volatile, p.persistent)
	clear(p.dirty)
	p.ndirty = 0
	clear(p.pending)
	p.evictQueue = nil
	if p.lastWriter != nil {
		for i := range p.lastWriter {
			p.lastWriter[i] = 0
			p.lastSite[i] = 0
		}
	}
}

// denseReplayer re-applies a recorded op journal to a fresh device under the
// worst-case persistency model (no eADR, no background eviction — exactly
// the semantics the journal was recorded under; the recording runtime's
// eviction, if any, is not replayed, keeping images worst-case
// conservative). Positions are journal indices: position p is the state
// after applying ops[0:p], i.e. a crash "after op p-1".
type denseReplayer struct {
	pool *densePool
	pos  int
}

// newDenseReplayer creates a replayer over a fresh zero-filled device of the
// given size.
func newDenseReplayer(size uint64) *denseReplayer {
	p := newDensePool(size, Options{})
	p.observe = true
	return &denseReplayer{pool: p}
}

// Apply applies one op and returns the snapshots it committed: for a fence,
// its thread's pending batch in commit order (empty when nothing was
// queued); for any other op, none. The journal must be applied in recording
// order. The returned slice is valid until the next Apply.
func (r *denseReplayer) Apply(op Op) []Commit {
	r.pool.commits = r.pool.commits[:0]
	r.pool.snapPos = r.pos
	switch op.Kind {
	case OpStore, OpNTStore:
		data := op.Data
		if data == nil {
			data = make([]byte, op.Size)
		}
		if op.Kind == OpStore {
			r.pool.Store(op.TID, op.Addr, data, op.Site)
		} else {
			r.pool.NTStore(op.TID, op.Addr, data, op.Site)
		}
	case OpFlush:
		r.pool.Flush(op.TID, op.Addr)
	case OpFence:
		r.pool.Fence(op.TID)
	default:
		panic(fmt.Sprintf("pmem: cannot replay op kind %d", op.Kind))
	}
	r.pos++
	return r.pool.commits
}

// RebootClone returns a new densePool modeling a crash-and-restart of this
// device: both views hold the persistent image, and all cache/pending state
// is gone. The original pool is untouched, so a replay can continue past
// the crash point. dst, when non-nil and of matching size, is reused
// (campaigns reboot hundreds of images; recycling the two size-of-device
// buffers keeps the allocator out of the hot loop); otherwise a fresh pool
// is allocated.
func (p *densePool) RebootClone(dst *densePool) *densePool {
	if dst == nil || dst.Size() != p.Size() || dst.opts != (Options{}) {
		dst = newDensePool(p.Size(), Options{})
	}
	copy(dst.persistent, p.persistent)
	copy(dst.volatile, p.persistent)
	if dst.ndirty > 0 {
		clear(dst.dirty)
		dst.ndirty = 0
	}
	clear(dst.pending)
	dst.evictQueue = nil
	dst.clock = 0
	return dst
}
