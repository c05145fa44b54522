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
// crash). Each image is a page table of 4 KiB pages in which a page no store
// has reached is nil and reads as zeros, so a device costs memory for the
// pages a run writes, not for its size.
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
	// 8 bytes of metadata per byte of every page a store reaches, so it is
	// off by default.
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

// pendingFlush is a snapshot taken by a flush or NT store, waiting for the
// issuing thread's next fence to enter the persistent domain. Its bytes are
// data[off:off+n] of the thread's snapshots.
type pendingFlush struct {
	addr   Addr
	off, n int
	pos    int // journal position of the op that took it (Replayer pools only)
}

// snapshots is one thread's pending batch: the snapshots its flushes and NT
// stores took since its last fence, with their bytes back to back in data.
// The fence empties both and keeps their capacity for the next batch.
type snapshots struct {
	batch []pendingFlush
	data  []byte
}

// Pool is a simulated PM device.
type Pool struct {
	opts       Options
	size       uint64
	volatile   view
	persistent view
	// writers records, per byte, the thread and call site of the most
	// recent store (Options.TrackWriters; nil otherwise). A page's entry is
	// allocated by the first store to it and dropped at Reboot. Used by the
	// observation-based baseline (internal/baseline/pmrace) to detect
	// dirty reads the way PMRace does.
	writers []*writerPage
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

type evictEntry struct {
	line uint64
	at   uint64
}

// The page table's geometry. LineSize divides pageSize, so a cache line
// never straddles a page.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// zeroPage stands in for every nil page on reads; nothing writes it.
var zeroPage page

// view is one image of the address space: page i holds bytes
// [i*pageSize, (i+1)*pageSize), and a nil page reads as zeros. Only a
// write of nonzero bytes allocates a page; reads never do.
type view []*page

// at returns page i for reading.
func (v view) at(i uint64) *page {
	if pg := v[i]; pg != nil {
		return pg
	}
	return &zeroPage
}

// pageSpan splits [addr, end) at addr's page: it returns the page index, the
// offset in it, and how many bytes of the range lie in that page.
func pageSpan(addr, end Addr) (i, off, n uint64) {
	i, off = addr>>pageShift, addr&pageMask
	return i, off, min(end-addr, pageSize-off)
}

// readPage copies [addr, addr+len(buf)) into buf if the range is not
// empty and lies in one page, which every aligned typed access does, and
// reports whether it did. It is small enough to inline, so Load takes an
// in-page access without a call.
func (v view) readPage(addr Addr, buf []byte) bool {
	off := addr & pageMask
	if uint64(len(buf))-1 >= pageSize-off {
		return false
	}
	copy(buf, v.at(addr >> pageShift)[off:])
	return true
}

// read copies [addr, addr+len(buf)) into buf.
func (v view) read(addr Addr, buf []byte) {
	for end := addr + uint64(len(buf)); addr < end; {
		i, off, n := pageSpan(addr, end)
		copy(buf, v.at(i)[off:off+n])
		buf = buf[n:]
		addr += n
	}
}

// writePage is readPage's counterpart for a write to an allocated page.
// The length test comes first: an empty range may start at the end of the
// last page, where there is no page to look up.
func (v view) writePage(addr Addr, data []byte) bool {
	off := addr & pageMask
	if uint64(len(data))-1 >= pageSize-off {
		return false
	}
	pg := v[addr>>pageShift]
	if pg == nil {
		return false
	}
	copy(pg[off:], data)
	return true
}

// write copies data to [addr, addr+len(data)). It allocates a missing page
// only for nonzero bytes: zeros written to a nil page are already there.
func (v view) write(addr Addr, data []byte) {
	for end := addr + uint64(len(data)); addr < end; {
		i, off, n := pageSpan(addr, end)
		if v[i] == nil && !bytes.Equal(data[:n], zeroPage[:n]) {
			v[i] = new(page)
		}
		if v[i] != nil {
			copy(v[i][off:off+n], data)
		}
		data = data[n:]
		addr += n
	}
}

// holds reports whether [addr, addr+len(data)) of v equals data.
func (v view) holds(addr Addr, data []byte) bool {
	for end := addr + uint64(len(data)); addr < end; {
		i, off, n := pageSpan(addr, end)
		if !bytes.Equal(v.at(i)[off:off+n], data[:n]) {
			return false
		}
		data = data[n:]
		addr += n
	}
	return true
}

// copyFrom makes v hold src's bytes: it copies the pages src holds into
// v's own, allocating those v lacks, and zeroes v's other pages, keeping
// them for later copies.
func (v view) copyFrom(src view) {
	for i, s := range src {
		switch {
		case s != nil:
			if v[i] == nil {
				v[i] = new(page)
			}
			*v[i] = *s
		case v[i] != nil:
			*v[i] = page{}
		}
	}
}

// diff returns the lowest address in [addr, addr+size) at which a and b
// differ, comparing page by page; differ is false when they agree.
func diff(a, b view, addr Addr, size uint64) (at Addr, differ bool) {
	for end := addr + size; addr < end; {
		i, off, n := pageSpan(addr, end)
		if a[i] != b[i] {
			x, y := a.at(i)[off:off+n], b.at(i)[off:off+n]
			if !bytes.Equal(x, y) {
				j := 0
				for x[j] == y[j] {
					j++
				}
				return addr + uint64(j), true
			}
		}
		addr += n
	}
	return 0, false
}

// writerPage holds the last writer and site of each byte of one page.
type writerPage struct {
	writer, site [pageSize]int32
}

// New creates a Pool of the given size in bytes, zero-filled and fully
// persisted. It allocates only the page tables and the dirty-line bitset.
func New(size uint64, opts Options) *Pool {
	lines := (size + LineSize - 1) / LineSize
	pages := (size + pageSize - 1) / pageSize
	p := &Pool{
		opts:        opts,
		size:        size,
		volatile:    make(view, pages),
		persistent:  make(view, pages),
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
		p.writers = make([]*writerPage, pages)
	}
	return p
}

// Size returns the pool size in bytes.
func (p *Pool) Size() uint64 { return p.size }

func (p *Pool) check(addr Addr, n int) {
	// Subtraction form: int(addr)+n wraps negative for addresses near the
	// top of the address space and silently passes the comparison.
	if n < 0 || addr > p.size || uint64(n) > p.size-addr {
		p.outOfBounds(addr, n)
	}
}

// outOfBounds panics for check; out of line, so check inlines.
//
//go:noinline
func (p *Pool) outOfBounds(addr Addr, n int) {
	panic(fmt.Sprintf("pmem: access [%#x,%#x) out of pool bounds %#x", addr, addr+uint64(n), p.size))
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
	if !p.volatile.writePage(addr, data) {
		p.volatile.write(addr, data)
	}
	if p.opts.EADR {
		p.persistent.write(addr, data)
		return
	}
	if p.writers != nil {
		p.trackWriters(tid, addr, uint64(len(data)), site)
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

// trackWriters records tid and site as the last writer of [addr, addr+n).
func (p *Pool) trackWriters(tid int32, addr Addr, n uint64, site int32) {
	for end := addr + n; addr < end; {
		i, off, k := pageSpan(addr, end)
		w := p.writers[i]
		if w == nil {
			w = new(writerPage)
			p.writers[i] = w
		}
		for j := off; j < off+k; j++ {
			w.writer[j] = tid
			w.site[j] = site
		}
		addr += k
	}
}

// isDirty reports whether line l's bit is set.
func (p *Pool) isDirty(l uint64) bool { return p.dirty[l/64]&(1<<(l%64)) != 0 }

// clean clears the bit of line l, which must be set.
func (p *Pool) clean(l uint64) {
	p.dirty[l/64] &^= 1 << (l % 64)
	p.ndirty--
}

// line returns line l's bytes in v for reading.
func (p *Pool) line(v view, l uint64) []byte {
	base := l * LineSize
	off := base & pageMask
	return v.at(base >> pageShift)[off : off+min(LineSize, p.size-base)]
}

// tick advances the device clock and performs due background evictions.
func (p *Pool) tick() {
	p.clock++
	if p.opts.EvictAfter > 0 {
		p.evict()
	}
}

func (p *Pool) evict() {
	for len(p.evictQueue) > 0 && p.clock-p.evictQueue[0].at >= uint64(p.opts.EvictAfter) {
		e := p.evictQueue[0]
		p.evictQueue = p.evictQueue[1:]
		if !p.isDirty(e.line) {
			continue
		}
		p.persistent.write(e.line*LineSize, p.line(p.volatile, e.line))
		p.clean(e.line)
		p.mEvictions.Inc()
		p.mDirtyLines.Set(int64(p.ndirty))
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
	p.snapshot(tid, addr, data)
}

// snapshot appends a copy of data, taken at addr, to tid's pending batch.
func (p *Pool) snapshot(tid int32, addr Addr, data []byte) {
	s := p.pending[tid]
	if s == nil {
		s = new(snapshots)
		p.pending[tid] = s
	}
	s.batch = append(s.batch, pendingFlush{addr: addr, off: len(s.data), n: len(data), pos: p.snapPos})
	s.data = append(s.data, data...)
}

// Load copies the current volatile contents at addr into buf.
func (p *Pool) Load(addr Addr, buf []byte) {
	p.check(addr, len(buf))
	p.tick()
	if !p.volatile.readPage(addr, buf) {
		p.volatile.read(addr, buf)
	}
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
	p.snapshot(tid, line*LineSize, p.line(p.volatile, line))
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
// Flush or NTStore from tid enters the persistent domain, in issue order.
// Bytes that were re-dirtied after their snapshot remain dirty.
func (p *Pool) Fence(tid int32) {
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
		if p.observe {
			p.commits = append(p.commits, Commit{Pos: pf.pos, Addr: pf.addr, Size: uint64(pf.n),
				Changed: !p.persistent.holds(pf.addr, data)})
		}
		if !p.persistent.writePage(pf.addr, data) {
			p.persistent.write(pf.addr, data)
		}
	}
	// Re-check only the lines this fence touched; lines not covered by one
	// of its flushes cannot have become clean.
	for _, pf := range s.batch {
		if pf.n == 0 {
			continue
		}
		last := LineOf(LastByte(pf.addr, uint64(pf.n)))
		for l := LineOf(pf.addr); l <= last; l++ {
			if p.isDirty(l) && bytes.Equal(p.line(p.volatile, l), p.line(p.persistent, l)) {
				p.clean(l)
			}
		}
	}
	s.batch, s.data = s.batch[:0], s.data[:0]
	p.mDirtyLines.Set(int64(p.ndirty))
}

// ReadPersistent copies [addr, addr+len(buf)) of the persistent view into
// buf (post-crash inspection; not an instrumented access).
func (p *Pool) ReadPersistent(addr Addr, buf []byte) {
	p.check(addr, len(buf))
	p.persistent.read(addr, buf)
}

// DiffPersistent compares p's persistent view with q's over [addr,
// addr+size), page by page, and returns the lowest address at which they
// differ; differ is false when they agree. A page neither device has
// written reads as zeros on both.
func (p *Pool) DiffPersistent(q *Pool, addr Addr, size uint64) (at Addr, differ bool) {
	p.check(addr, int(size))
	q.check(addr, int(size))
	return diff(p.persistent, q.persistent, addr, size)
}

// DiffVolatile is DiffPersistent for the volatile views.
func (p *Pool) DiffVolatile(q *Pool, addr Addr, size uint64) (at Addr, differ bool) {
	p.check(addr, int(size))
	q.check(addr, int(size))
	return diff(p.volatile, q.volatile, addr, size)
}

// Persisted reports whether every byte of [addr, addr+size) is guaranteed to
// be in the persistent domain (volatile and persistent views agree).
func (p *Pool) Persisted(addr Addr, size uint64) bool {
	p.check(addr, int(size))
	_, differ := diff(p.volatile, p.persistent, addr, size)
	return !differ
}

// DirtyRead reports whether a load of [addr, addr+size) by tid would observe
// data that is visible but not guaranteed persistent and was written by a
// different thread — PMRace's "PM Inter-thread Inconsistency" observation.
// It returns the writing thread and the store's call site for the first such
// byte. Requires Options.TrackWriters; otherwise it reports nothing.
func (p *Pool) DirtyRead(tid int32, addr Addr, size uint64) (writer, site int32, ok bool) {
	if p.writers == nil {
		return 0, 0, false
	}
	p.check(addr, int(size))
	for end := addr + size; addr < end; {
		i, off, n := pageSpan(addr, end)
		vol, per, w := p.volatile.at(i), p.persistent.at(i), p.writers[i]
		for j := off; j < off+n; j++ {
			if vol[j] == per[j] {
				continue
			}
			if w == nil {
				if tid != 0 {
					return 0, 0, true
				}
			} else if w.writer[j] != tid {
				return w.writer[j], w.site[j], true
			}
		}
		addr += n
	}
	return 0, 0, false
}

// Crash returns a copy of the persistent view: the post-crash image with all
// unpersisted cache contents lost.
func (p *Pool) Crash() []byte {
	img := make([]byte, p.size)
	for i, pg := range p.persistent {
		if pg != nil {
			copy(img[i<<pageShift:], pg[:])
		}
	}
	return img
}

// DirtyLines returns the number of lines that may differ between the
// volatile and persistent views (an upper bound; cleaned lazily on fences).
func (p *Pool) DirtyLines() int { return p.ndirty }

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
	var b [8]byte
	p.ReadPersistent(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Reboot simulates a crash and restart on the same device: the volatile
// domain (cache, store buffer) is lost, so the visible contents become
// exactly the persistent view, and all dirty/pending state clears. The pool
// is then ready for a recovery run.
func (p *Pool) Reboot() {
	p.volatile.copyFrom(p.persistent)
	clear(p.dirty)
	p.ndirty = 0
	p.dropPending()
	p.evictQueue = nil
	clear(p.writers)
}

// dropPending discards every thread's unfenced snapshots, keeping their
// buffers for the next batch.
func (p *Pool) dropPending() {
	for _, s := range p.pending {
		s.batch, s.data = s.batch[:0], s.data[:0]
	}
}
