// Package pmem models a byte-addressable persistent memory device fronted by
// a volatile CPU cache, following the worst-case persistency semantics used
// by HawkSet's Memory Simulation component (EuroSys'25, §3.2 A): a store
// dirties its 64-byte cache line and the line is only guaranteed persistent
// after an explicit flush (CLWB/CLFLUSHOPT) followed by a fence (SFENCE)
// issued by the flushing thread. Data written after the flush but before the
// fence is not covered by that flush.
//
// The model keeps two images of the address space: the volatile view (what
// loads observe, i.e. cache plus PM) and the persistent view (what survives a
// crash). Crash returns a copy of the persistent view.
//
// Pool is not safe for concurrent use; the instrumented runtime
// (internal/pmrt) serializes all accesses through its cooperative scheduler.
package pmem

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"hawkset/internal/obs"
)

// Addr is an offset into a Pool's address space. Applications treat Addr
// values as persistent pointers.
type Addr = uint64

// LineSize is the cache-line size in bytes; flush and persistence tracking
// are line-granular, exactly like CLWB on x86.
const LineSize = 64

// LineOf returns the line index containing addr.
func LineOf(addr Addr) uint64 { return addr / LineSize }

// LastByte returns the address of the last byte of [addr, addr+size),
// clamped to the top of the address space when addr+size-1 would wrap. The
// addition form addr+size-1 turns a range ending at the top of the address
// space into a tiny (or enormous) bound, so every line-iteration loop uses
// this subtraction-form helper instead. size must be nonzero.
func LastByte(addr Addr, size uint64) Addr {
	if size-1 > ^uint64(0)-addr {
		return ^uint64(0)
	}
	return addr + size - 1
}

// Options configure a Pool.
type Options struct {
	// EADR models extended Asynchronous DRAM Refresh: the persistent domain
	// includes the cache, so every store is persistent as soon as it is
	// visible. Used for ablations; HawkSet targets non-eADR platforms.
	EADR bool
	// TrackWriters enables per-byte last-writer/last-site bookkeeping, which
	// DirtyRead needs. Only the observation-based baseline uses it; it costs
	// 8 bytes of metadata per pool byte, so it is off by default.
	TrackWriters bool
	// EvictAfter, when positive, models the cache's background writeback:
	// a line left dirty for EvictAfter device operations is evicted, i.e.
	// written back and persisted, without any program action — §2.1's "data
	// may be arbitrarily flushed to PM by the cache-policy algorithm".
	//
	// HawkSet's own Memory Simulation deliberately ignores eviction (it
	// tracks when data is *guaranteed* persistent, worst case), but the
	// observation-based baseline runs against hardware-realistic eviction:
	// on real PM most unpersisted windows close quickly by accident, which
	// is precisely why races are so hard to observe directly (§5.2).
	EvictAfter int
	// Metrics, when non-nil, receives side-band device counters (stores,
	// flushes, fences, evictions) and the dirty-line gauge. Device behavior
	// is unaffected. A pointer field keeps Options comparable (Replayer
	// clone reuse relies on that).
	Metrics *obs.Registry
}

// pendingFlush is a snapshot taken by a flush instruction, waiting for the
// issuing thread's next fence to enter the persistent domain.
type pendingFlush struct {
	addr Addr
	data []byte
}

// Pool is a simulated PM device.
type Pool struct {
	opts       Options
	volatile   []byte
	persistent []byte
	// lastWriter / lastSite record, per byte, the thread and call site of the
	// most recent store while that byte is unpersisted. Used by the
	// observation-based baseline (internal/baseline/pmrace) to detect
	// dirty reads the way PMRace does.
	lastWriter []int32
	lastSite   []int32
	dirty      map[uint64]struct{} // line index -> dirty (volatile != persistent possible)
	pending    map[int32][]pendingFlush

	// Background-eviction state (Options.EvictAfter).
	clock      uint64
	evictQueue []evictEntry

	// Side-band metric handles (nil when Options.Metrics is unset).
	mStores     *obs.Counter
	mNTStores   *obs.Counter
	mStoreBytes *obs.Counter
	mFlushes    *obs.Counter
	mFences     *obs.Counter
	mEvictions  *obs.Counter
	mDirtyLines *obs.Gauge
}

type evictEntry struct {
	line uint64
	at   uint64
}

// New creates a Pool of the given size in bytes, zero-filled and fully
// persisted.
func New(size uint64, opts Options) *Pool {
	p := &Pool{
		opts:        opts,
		volatile:    make([]byte, size),
		persistent:  make([]byte, size),
		dirty:       make(map[uint64]struct{}),
		pending:     make(map[int32][]pendingFlush),
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
func (p *Pool) Size() uint64 { return uint64(len(p.volatile)) }

func (p *Pool) check(addr Addr, n int) {
	// Subtraction form: int(addr)+n wraps negative for addresses near the
	// top of the address space and silently passes the comparison.
	if n < 0 || addr > p.Size() || uint64(n) > p.Size()-addr {
		panic(fmt.Sprintf("pmem: access [%#x,%#x) out of pool bounds %#x", addr, addr+uint64(n), len(p.volatile)))
	}
}

// Store writes data to the volatile view on behalf of tid, dirtying the
// covered lines. site identifies the program location of the store for
// dirty-read attribution.
func (p *Pool) Store(tid int32, addr Addr, data []byte, site int32) {
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
		p.dirty[l] = struct{}{}
		if p.opts.EvictAfter > 0 {
			p.evictQueue = append(p.evictQueue, evictEntry{line: l, at: p.clock})
		}
	}
	p.mDirtyLines.Set(int64(len(p.dirty)))
}

// tick advances the device clock and performs due background evictions.
func (p *Pool) tick() {
	p.clock++
	if p.opts.EvictAfter <= 0 {
		return
	}
	for len(p.evictQueue) > 0 && p.clock-p.evictQueue[0].at >= uint64(p.opts.EvictAfter) {
		e := p.evictQueue[0]
		p.evictQueue = p.evictQueue[1:]
		if _, isDirty := p.dirty[e.line]; !isDirty {
			continue
		}
		base := e.line * LineSize
		end := base + LineSize
		if end > p.Size() {
			end = p.Size()
		}
		copy(p.persistent[base:end], p.volatile[base:end])
		delete(p.dirty, e.line)
		p.mEvictions.Inc()
		p.mDirtyLines.Set(int64(len(p.dirty)))
	}
}

// NTStore performs a non-temporal store: the data bypasses the cache and is
// queued for persistence, but ordering (and thus the persistence guarantee)
// still requires a fence from the same thread.
func (p *Pool) NTStore(tid int32, addr Addr, data []byte, site int32) {
	p.mNTStores.Inc()
	p.Store(tid, addr, data, site)
	if p.opts.EADR {
		return
	}
	snap := make([]byte, len(data))
	copy(snap, data)
	p.pending[tid] = append(p.pending[tid], pendingFlush{addr: addr, data: snap})
}

// Load copies the current volatile contents at addr into buf.
func (p *Pool) Load(addr Addr, buf []byte) {
	p.check(addr, len(buf))
	p.tick()
	copy(buf, p.volatile[addr:])
}

// Flush issues a CLWB for the line containing addr on behalf of tid: the
// line's current contents are snapshotted and will enter the persistent
// domain at tid's next fence. Stores after the flush are not covered.
func (p *Pool) Flush(tid int32, addr Addr) {
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
	snap := make([]byte, end-base)
	copy(snap, p.volatile[base:end])
	p.pending[tid] = append(p.pending[tid], pendingFlush{addr: base, data: snap})
}

// FlushRange issues flushes for every line overlapping [addr, addr+size).
func (p *Pool) FlushRange(tid int32, addr Addr, size uint64) {
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
// Flush or NTStore from tid enters the persistent domain. Bytes that were
// re-dirtied after their snapshot remain dirty.
func (p *Pool) Fence(tid int32) {
	p.mFences.Inc()
	if p.opts.EADR {
		return
	}
	pfs := p.pending[tid]
	if len(pfs) == 0 {
		return
	}
	for _, pf := range pfs {
		copy(p.persistent[pf.addr:], pf.data)
	}
	delete(p.pending, tid)
	// Re-check only the lines this fence touched; lines not covered by one
	// of its flushes cannot have become clean.
	for _, pf := range pfs {
		if len(pf.data) == 0 {
			continue
		}
		last := LineOf(LastByte(pf.addr, uint64(len(pf.data))))
		for l := LineOf(pf.addr); l <= last; l++ {
			if _, dirty := p.dirty[l]; !dirty {
				continue
			}
			base := l * LineSize
			end := base + LineSize
			if end > p.Size() {
				end = p.Size()
			}
			if bytes.Equal(p.volatile[base:end], p.persistent[base:end]) {
				delete(p.dirty, l)
			}
		}
	}
	p.mDirtyLines.Set(int64(len(p.dirty)))
}

// Persisted reports whether every byte of [addr, addr+size) is guaranteed to
// be in the persistent domain (volatile and persistent views agree).
func (p *Pool) Persisted(addr Addr, size uint64) bool {
	p.check(addr, int(size))
	return bytes.Equal(p.volatile[addr:addr+size], p.persistent[addr:addr+size])
}

// DirtyRead reports whether a load of [addr, addr+size) by tid would observe
// data that is visible but not guaranteed persistent and was written by a
// different thread — PMRace's "PM Inter-thread Inconsistency" observation.
// It returns the writing thread and the store's call site for the first such
// byte. Requires Options.TrackWriters; otherwise it reports nothing.
func (p *Pool) DirtyRead(tid int32, addr Addr, size uint64) (writer, site int32, ok bool) {
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
func (p *Pool) Crash() []byte {
	img := make([]byte, len(p.persistent))
	copy(img, p.persistent)
	return img
}

// DirtyLines returns the number of lines that may differ between the
// volatile and persistent views (an upper bound; cleaned lazily on fences).
func (p *Pool) DirtyLines() int { return len(p.dirty) }

// Typed helpers (little-endian, matching x86).

// Store8 writes a uint64.
func (p *Pool) Store8(tid int32, addr Addr, v uint64, site int32) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	p.Store(tid, addr, b[:], site)
}

// Load8 reads a uint64 from the volatile view.
func (p *Pool) Load8(addr Addr) uint64 {
	var b [8]byte
	p.Load(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// ReadPersistent8 reads a uint64 from the persistent view (post-crash
// inspection; not an instrumented access).
func (p *Pool) ReadPersistent8(addr Addr) uint64 {
	p.check(addr, 8)
	return binary.LittleEndian.Uint64(p.persistent[addr:])
}

// Reboot simulates a crash and restart on the same device: the volatile
// domain (cache, store buffer) is lost, so the visible contents become
// exactly the persistent view, and all dirty/pending state clears. The pool
// is then ready for a recovery run.
func (p *Pool) Reboot() {
	copy(p.volatile, p.persistent)
	p.dirty = make(map[uint64]struct{})
	p.pending = make(map[int32][]pendingFlush)
	p.evictQueue = nil
	if p.lastWriter != nil {
		for i := range p.lastWriter {
			p.lastWriter[i] = 0
			p.lastSite[i] = 0
		}
	}
}
