package hawkset

import (
	"sort"

	"hawkset/internal/lockset"
	"hawkset/internal/obs"
	"hawkset/internal/pmem"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
	"hawkset/internal/vclock"
)

// replayer implements the Instrumentation-stage components of the pipeline
// (§3.2): Memory Simulation (Ⓐ worst-case cache: a line is persisted only
// after explicit flush+fence; store windows end at persist or overwrite),
// Lock Tracking (Ⓑ current lockset with acquisition timestamps), Thread
// Tracking (Ⓒ vector clocks with lazily batched increments), and the
// Initialization Removal Heuristic (stage ②), which the implementation
// applies alongside replay exactly as the paper's implementation does (§4).
type replayer struct {
	cfg Config
	ls  *lockset.Table
	vc  *vclock.Table

	threads map[int32]*threadState
	// lastTID/lastTS short-circuit the threads map for the common case of
	// consecutive events from one thread. Invalidated when a thread state
	// object is replaced (duplicate create).
	lastTID int32
	lastTS  *threadState
	// lines maps a cache-line index to its open (visible-but-unpersisted)
	// stores.
	lines map[uint64][]*openStore
	// pub tracks, per access start address, which thread touched it first
	// and whether a second thread has made it public (§3.1.3). Values, not
	// pointers: the state is three words and transitions at most twice, so
	// a pointer per address would only add an allocation and a cache miss
	// to every access.
	pub map[uint64]pubState
	// allocEpoch tracks, per cache line, how many instrumented allocations
	// have covered it (Config.AllocAware): publication state older than the
	// line's current epoch is stale and resets on the next touch.
	allocEpoch map[uint64]uint64

	// Dedup state. Records live in value slices (loadList/storeList) and the
	// dedup maps hold int32 indices into them: the maps stay pointer-free
	// (the GC never scans them) and the records are contiguous. Load keys
	// whose fields fit the 64-bit packing go through loadsPacked — a 16-byte
	// key hashed in one shot — fronted by a small direct-mapped cache that
	// exploits the temporal locality of hot records (a tree root re-read on
	// every operation dedups without touching the big map). Out-of-range
	// fields (huge TIDs, >16KB loads, very long streams) spill to the exact
	// struct-keyed map; a key deterministically belongs to exactly one map.
	stores     map[storeKey]int32
	loadsPack  loadTab
	loadsSpill map[loadKey]int32
	storeList  []StoreData
	loadList   []LoadData

	// osArena block-allocates openStore records: stage ① opens one per
	// dynamic store, and allocating them individually made the allocator the
	// hottest part of the store path.
	osArena []openStore
	// coveredPool recycles the pendingFlush covered slices that fence
	// retires every persist cycle.
	coveredPool [][]*openStore

	// onWindow, when set, receives every unpersisted window as it closes, in
	// trace-event coordinates (see StoreWindow). It fires before the
	// Initialization Removal Heuristic decides whether to keep the store:
	// windows are an execution-level artifact, not a report-level one.
	onWindow func(StoreWindow)

	stats Stats

	// Side-band metric handles (nil when Config.Metrics is unset; all
	// methods no-op on nil). mOpenStores counts the entries retained across
	// the per-line open lists — a store spanning k lines counts k times —
	// so its high-water mark is the retention detector: closed stores left
	// in any line's list (the streaming-replay leak) push it without bound,
	// while a healthy replay keeps it near the true open-window count.
	mEvents     *obs.Counter
	mOpenStores *obs.Gauge
	mLines      *obs.Gauge
}

type pubState struct {
	first     int32
	published bool
	epoch     uint64
}

// openStore is a visible store whose persistence window is still open.
type openStore struct {
	tid   int32
	addr  uint64
	size  uint32
	site  sites.ID
	set   lockset.Set // lockset at the store instruction
	start vclock.ID
	// openIdx is the trace-event index of the store itself (for window
	// extraction in event coordinates).
	openIdx int
	closed  bool
}

type threadState struct {
	set   lockset.Set
	clock uint32 // logical clock: bumped on every lock acquisition
	// idx is the thread's dense index, its vector-clock component and epoch
	// owner: assigned in first-seen order and kept when the TID is reused,
	// so clocks grow with the number of TIDs, not with the largest one.
	idx   int32
	vc    vclock.VC
	vcID  vclock.ID
	fresh bool // bump the VC at the next VC-recording event (batching, §4)
	// lsID caches the interned, timestamp-stripped lockset of set; lsOK is
	// cleared on every lock event so loads between lock transitions — the
	// overwhelming majority — intern nothing.
	lsID lockset.ID
	lsOK bool
	// pending holds flush snapshots awaiting this thread's next fence.
	pending []pendingFlush
}

type pendingFlush struct {
	line    uint64
	covered []*openStore
}

// storeKey dedups store records: two dynamic stores with identical shape
// collapse into one StoreData with a count (the grouping optimization, §4).
type storeKey struct {
	tid     int32
	addr    uint64
	size    uint32
	site    sites.ID
	eff     lockset.ID
	start   vclock.ID
	end     vclock.ID
	endKind EndKind
}

type loadKey struct {
	tid  int32
	addr uint64
	size uint32
	site sites.ID
	ls   lockset.ID
	vc   vclock.ID
}

// packLoad bit budget, low to high. The bounds cover every realistic trace
// (the apps use tens of threads, sub-KB accesses, thousands of sites and
// locksets); anything larger spills to the exact map.
const (
	packVCBits   = 12
	packLSBits   = 14
	packSiteBits = 16
	packSizeBits = 14
	packTIDBits  = 8
)

// packLoad packs the non-address load-key fields into one word, reporting
// ok=false when any field exceeds its bit budget (negative IDs wrap to huge
// unsigned values and fail the bound too).
func packLoad(tid int32, size uint32, site sites.ID, ls lockset.ID, vc vclock.ID) (uint64, bool) {
	if uint64(uint32(tid)) >= 1<<packTIDBits || uint64(size) >= 1<<packSizeBits ||
		uint64(uint32(site)) >= 1<<packSiteBits || uint64(uint32(ls)) >= 1<<packLSBits ||
		uint64(uint32(vc)) >= 1<<packVCBits {
		return 0, false
	}
	return uint64(uint32(vc)) |
		uint64(uint32(ls))<<packVCBits |
		uint64(uint32(site))<<(packVCBits+packLSBits) |
		uint64(size)<<(packVCBits+packLSBits+packSiteBits) |
		uint64(uint32(tid))<<(packVCBits+packLSBits+packSiteBits+packSizeBits), true
}

// loadTab is an open-addressing hash table from (addr, packed key) to a
// loadList index. It replaces a runtime map on the single hottest lookup of
// the whole pipeline (one probe per dynamic PM load): linear probing over a
// flat entry array needs one multiply-hash and, at the 50% load factor
// enforced here, almost always exactly one 24-byte probe — no hash-function
// call, no 16-byte memequal, no bucket indirection. Entries are never
// deleted, which is what makes the linear probe correct.
type loadTab struct {
	entries []loadTabEntry
	used    int
}

type loadTabEntry struct {
	addr uint64
	key  uint64
	idx  int32 // loadList index + 1; 0 = empty slot
}

const loadTabInitBits = 13

func loadTabHash(addr, key uint64) uint64 {
	h := addr*0x9E3779B97F4A7C15 ^ key*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	return h ^ h>>32
}

// lookup returns a pointer to the entry for (addr, key), or to the empty
// slot where it belongs (idx == 0). The caller fills the slot to insert and
// must then call grew().
func (t *loadTab) lookup(addr, key uint64) *loadTabEntry {
	if t.entries == nil {
		t.entries = make([]loadTabEntry, 1<<loadTabInitBits)
	}
	mask := uint64(len(t.entries) - 1)
	for i := loadTabHash(addr, key) & mask; ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.idx == 0 || (e.addr == addr && e.key == key) {
			return e
		}
	}
}

// grew records an insertion and rehashes at 50% occupancy.
func (t *loadTab) grew() {
	t.used++
	if t.used*2 < len(t.entries) {
		return
	}
	old := t.entries
	t.entries = make([]loadTabEntry, 2*len(old))
	mask := uint64(len(t.entries) - 1)
	for _, e := range old {
		if e.idx == 0 {
			continue
		}
		i := loadTabHash(e.addr, e.key) & mask
		for t.entries[i].idx != 0 {
			i = (i + 1) & mask
		}
		t.entries[i] = e
	}
}

func newReplayer(cfg Config) *replayer {
	return &replayer{
		cfg:         cfg,
		ls:          lockset.NewTable(),
		vc:          vclock.NewTable(),
		threads:     make(map[int32]*threadState),
		lines:       make(map[uint64][]*openStore),
		pub:         make(map[uint64]pubState),
		allocEpoch:  make(map[uint64]uint64),
		stores:      make(map[storeKey]int32),
		loadsSpill:  make(map[loadKey]int32),
		mEvents:     cfg.Metrics.Counter("hawkset.replay.events"),
		mOpenStores: cfg.Metrics.Gauge("hawkset.replay.open_stores"),
		mLines:      cfg.Metrics.Gauge("hawkset.replay.lines"),
	}
}

// newOpenStore hands out openStore records from block allocations.
func (r *replayer) newOpenStore() *openStore {
	if len(r.osArena) == 0 {
		r.osArena = make([]openStore, 256)
	}
	os := &r.osArena[0]
	r.osArena = r.osArena[1:]
	return os
}

// getCovered pops a recycled covered slice (or allocates one).
func (r *replayer) getCovered(capHint int) []*openStore {
	if n := len(r.coveredPool); n > 0 {
		s := r.coveredPool[n-1]
		r.coveredPool = r.coveredPool[:n-1]
		return s[:0]
	}
	return make([]*openStore, 0, capHint)
}

func (r *replayer) putCovered(s []*openStore) {
	if cap(s) == 0 {
		return
	}
	r.coveredPool = append(r.coveredPool, s[:0])
}

// setLine writes a compacted line list back, keeping the retention gauges
// honest: removed entries decrement mOpenStores, and emptied lines leave the
// map instead of lingering as dead keys.
func (r *replayer) setLine(line uint64, kept []*openStore, was int) {
	if removed := was - len(kept); removed > 0 {
		r.mOpenStores.Add(-int64(removed))
	}
	if len(kept) == 0 {
		delete(r.lines, line)
	} else {
		r.lines[line] = kept
	}
	r.mLines.Set(int64(len(r.lines)))
}

// compactLines sweeps closed entries out of every line covered by
// [addr, addr+size).
func (r *replayer) compactLines(addr uint64, size uint32) {
	linesOf(addr, size, func(line uint64) {
		open, ok := r.lines[line]
		if !ok {
			return
		}
		kept := open[:0]
		for _, os := range open {
			if !os.closed {
				kept = append(kept, os)
			}
		}
		r.setLine(line, kept, len(open))
	})
}

func (r *replayer) thread(tid int32) *threadState {
	if r.lastTS != nil && r.lastTID == tid {
		return r.lastTS
	}
	ts, ok := r.threads[tid]
	if !ok {
		ts = &threadState{idx: int32(len(r.threads))}
		ts.vc = vclock.VC{}.Bump(int(ts.idx))
		ts.vcID = r.vc.InternOwned(ts.vc, ts.idx)
		r.threads[tid] = ts
	}
	r.lastTID, r.lastTS = tid, ts
	return ts
}

// curVC applies any pending batched bump and returns the thread's interned
// vector clock. Called at every VC-recording event (PM access or
// window-closing fence). The interned clock is owned by the thread: it is
// the thread's event clock at its current local tick, the precondition for
// the epoch compare of vclock.LeqID.
func (r *replayer) curVC(ts *threadState) vclock.ID {
	if ts.fresh {
		ts.vc = ts.vc.Bump(int(ts.idx))
		ts.vcID = r.vc.InternOwned(ts.vc, ts.idx)
		ts.fresh = false
	}
	return ts.vcID
}

// feed processes one event (the streaming entry point shared by the offline
// replay and the online Stream). Stream.Feed rejects unknown kinds before
// they get here; any that do arrive are counted and otherwise ignored.
func (r *replayer) feed(e trace.Event) {
	r.stats.Events++
	r.mEvents.Inc()
	switch e.Kind {
	case trace.KStore:
		r.store(e, false)
	case trace.KNTStore:
		r.store(e, true)
	case trace.KLoad:
		r.load(e)
	case trace.KFlush:
		r.flush(e)
	case trace.KFence:
		r.fence(e)
	case trace.KLockAcq:
		ts := r.thread(e.TID)
		ts.clock++
		ck := ts.clock
		if !r.cfg.Timestamps {
			ck = 0
		}
		ts.set = ts.set.Add(e.Lock, ck)
		ts.lsOK = false
	case trace.KLockRel:
		ts := r.thread(e.TID)
		ts.set = ts.set.Remove(e.Lock)
		ts.lsOK = false
	case trace.KAlloc:
		if r.cfg.AllocAware {
			linesOf(e.Addr, e.Size, func(line uint64) {
				r.allocEpoch[line]++
			})
		}
	case trace.KThreadCreate:
		parent := r.thread(e.TID)
		idx := int32(len(r.threads))
		if old, exists := r.threads[e.Kid]; exists {
			// The TID is being reused while a state for it is live: clocks
			// interned for the old incarnation share the component the new
			// one will advance, so the per-component ownership the epoch
			// compare relies on no longer holds.
			r.vc.Disown()
			idx = old.idx
		}
		parent.vc = parent.vc.Bump(int(parent.idx))
		// Not an owned intern: parent.fresh forces another bump before the
		// next recorded access, so this clock is never an event clock — it
		// exists only to ship the post-create state to the child.
		parent.vcID = r.vc.Intern(parent.vc)
		child := &threadState{idx: idx}
		child.vc = parent.vc.Clone().Bump(int(idx))
		child.vcID = r.vc.InternOwned(child.vc, idx)
		r.threads[e.Kid] = child
		r.lastTS = nil
		parent.fresh = true
	case trace.KThreadJoin:
		waiter := r.thread(e.TID)
		child := r.thread(e.Kid)
		waiter.vc = waiter.vc.Join(child.vc)
		// Not an owned intern either: the join does not advance the waiter's
		// own component, so this value is not the unique clock of the
		// waiter's current tick (waiter.fresh bumps before the next access).
		waiter.vcID = r.vc.Intern(waiter.vc)
		waiter.fresh = true
	}
}

// touch updates publication state for an access start address and reports
// whether the address is published (visible to a second thread). Under
// AllocAware analysis, publication recorded before the address's latest
// instrumented allocation is stale: the address was recycled and is private
// to its new owner again.
func (r *replayer) touch(tid int32, addr uint64) bool {
	var epoch uint64
	if r.cfg.AllocAware {
		epoch = r.allocEpoch[pmem.LineOf(addr)]
	}
	p, ok := r.pub[addr]
	if !ok || p.epoch != epoch {
		r.pub[addr] = pubState{first: tid, epoch: epoch}
		return false
	}
	if !p.published && p.first != tid {
		p.published = true
		r.pub[addr] = p
	}
	return p.published
}

// overlaps reports whether [aAddr, aAddr+aSize) and [bAddr, bAddr+bSize)
// share a byte. Size-0 accesses are one byte here, the same convention
// lastAddrOf and linesOf use: treating the empty range as overlapping
// nothing let a zero-size store be indexed under its cache line but never
// closed by an overwrite there, silently pinning an EndNone record (and its
// line-list entry) for the rest of the session. The comparisons are in
// subtraction form: the textbook aAddr < bAddr+bSize wraps when a range
// ends at the top of the address space, turning a genuine overlap into a
// miss.
func overlaps(aAddr uint64, aSize uint32, bAddr uint64, bSize uint32) bool {
	if aSize == 0 {
		aSize = 1
	}
	if bSize == 0 {
		bSize = 1
	}
	if aAddr >= bAddr {
		return aAddr-bAddr < uint64(bSize)
	}
	return bAddr-aAddr < uint64(aSize)
}

// lastAddrOf returns the last byte address covered by [addr, addr+size),
// clamped to the top of the address space when addr+size-1 would wrap.
// Zero-size accesses are treated as one byte, as in linesOf.
func lastAddrOf(addr uint64, size uint32) uint64 {
	if size == 0 {
		size = 1
	}
	end := addr + uint64(size) - 1
	if end < addr {
		return ^uint64(0)
	}
	return end
}

// linesOf iterates the cache-line indices covered by [addr, addr+size).
func linesOf(addr uint64, size uint32, fn func(line uint64)) {
	for l, last := pmem.LineOf(addr), pmem.LineOf(lastAddrOf(addr, size)); l <= last; l++ {
		fn(l)
	}
}

func (r *replayer) store(e trace.Event, nt bool) {
	r.stats.PMAccesses++
	ts := r.thread(e.TID)
	vcid := r.curVC(ts)
	r.touch(e.TID, e.Addr)

	if r.cfg.EADR {
		// The store is persistent the moment it becomes visible: there is no
		// visible-but-unpersisted window, so it can never be the store side
		// of a persistency-induced race. (Plain data races are a different
		// class, outside HawkSet's scope.)
		_ = vcid
		return
	}

	// Overwrite: close any open store this one overlaps (§3.1.2 — a store's
	// unpersisted window lasts "until the persistency, or the point where it
	// is overwritten by another store"). A closed store spanning lines
	// beyond the overwriting store's own range must be compacted out of ALL
	// its lines: sweeping only the shared lines left the dead entry in the
	// others forever, so long-running Stream sessions grew without bound
	// and every later flush of those lines re-scanned it.
	var closedSpanning []*openStore
	linesOf(e.Addr, e.Size, func(line uint64) {
		open := r.lines[line]
		kept := open[:0]
		for _, os := range open {
			if !os.closed && overlaps(os.addr, os.size, e.Addr, e.Size) {
				r.close(os, EndOverwrite, e.TID, ts, vcid)
				if spansLines(os.addr, os.size) {
					closedSpanning = append(closedSpanning, os)
				}
			}
			if !os.closed {
				kept = append(kept, os)
			}
		}
		r.setLine(line, kept, len(open))
	})
	for _, os := range closedSpanning {
		r.compactLines(os.addr, os.size)
	}

	os := r.newOpenStore()
	*os = openStore{
		tid:     e.TID,
		addr:    e.Addr,
		size:    e.Size,
		site:    e.Site,
		set:     ts.set,
		start:   vcid,
		openIdx: r.stats.Events - 1,
	}
	linesOf(e.Addr, e.Size, func(line uint64) {
		r.lines[line] = append(r.lines[line], os)
		r.mOpenStores.Add(1)
	})
	r.mLines.Set(int64(len(r.lines)))
	if nt {
		// A non-temporal store bypasses the cache: it is already queued for
		// persistence and needs only the thread's next fence.
		linesOf(e.Addr, e.Size, func(line uint64) {
			cv := append(r.getCovered(1), os)
			ts.pending = append(ts.pending, pendingFlush{line: line, covered: cv})
		})
	}
}

func (r *replayer) load(e trace.Event) {
	r.stats.PMAccesses++
	ts := r.thread(e.TID)
	vcid := r.curVC(ts)
	published := r.touch(e.TID, e.Addr)
	if r.cfg.IRH && !published {
		// Pre-publication loads are by the address's first thread only; any
		// pair they could form is same-thread and filtered anyway (§3.2 ②).
		r.stats.IRHDroppedLoads++
		return
	}
	r.stats.DynamicLoads++
	if !ts.lsOK {
		ts.lsID = r.ls.Intern(ts.set.StripTS())
		ts.lsOK = true
	}
	if packed, ok := packLoad(e.TID, e.Size, e.Site, ts.lsID, vcid); ok {
		r.loadPacked(e, packed, ts.lsID, vcid)
		return
	}
	key := loadKey{tid: e.TID, addr: e.Addr, size: e.Size, site: e.Site, ls: ts.lsID, vc: vcid}
	if idx, ok := r.loadsSpill[key]; ok {
		r.loadList[idx].Count++
	} else {
		r.loadsSpill[key] = r.appendLoad(e, ts.lsID, vcid)
	}
}

// loadPacked dedups a load whose key fits the packed form against the
// open-addressing table.
func (r *replayer) loadPacked(e trace.Event, packed uint64, ls lockset.ID, vc vclock.ID) {
	slot := r.loadsPack.lookup(e.Addr, packed)
	if slot.idx != 0 {
		r.loadList[slot.idx-1].Count++
		return
	}
	*slot = loadTabEntry{addr: e.Addr, key: packed, idx: r.appendLoad(e, ls, vc) + 1}
	r.loadsPack.grew()
}

func (r *replayer) appendLoad(e trace.Event, ls lockset.ID, vc vclock.ID) int32 {
	r.loadList = append(r.loadList, LoadData{
		TID: e.TID, Addr: e.Addr, Size: e.Size, Site: e.Site, LS: ls, VC: vc, Count: 1,
	})
	return int32(len(r.loadList) - 1)
}

func (r *replayer) flush(e trace.Event) {
	ts := r.thread(e.TID)
	line := pmem.LineOf(e.Addr)
	open := r.lines[line]
	if len(open) == 0 {
		return
	}
	// Snapshot semantics: the flush covers the stores visible now; stores
	// issued after the flush are not persisted by it. Closed entries are
	// swept here even when nothing is left to cover: an all-closed line
	// never enqueues a pendingFlush, so fence's compaction never reaches it
	// and its dead entries (and map key) would otherwise be retained for
	// the rest of the session.
	covered := r.getCovered(len(open))
	kept := open[:0]
	for _, os := range open {
		if !os.closed {
			covered = append(covered, os)
			kept = append(kept, os)
		}
	}
	r.setLine(line, kept, len(open))
	if len(covered) > 0 {
		ts.pending = append(ts.pending, pendingFlush{line: line, covered: covered})
	} else {
		r.putCovered(covered)
	}
}

func (r *replayer) fence(e trace.Event) {
	ts := r.thread(e.TID)
	if len(ts.pending) == 0 {
		return
	}
	vcid := r.curVC(ts)
	for _, pf := range ts.pending {
		for _, os := range pf.covered {
			if !os.closed {
				r.close(os, EndPersist, e.TID, ts, vcid)
			}
		}
		r.putCovered(pf.covered)
		// Compact the line's open list.
		open := r.lines[pf.line]
		kept := open[:0]
		for _, os := range open {
			if !os.closed {
				kept = append(kept, os)
			}
		}
		r.setLine(pf.line, kept, len(open))
	}
	ts.pending = ts.pending[:0]
}

// close ends a store's unpersisted window and records its StoreData. endTS
// is the thread state of the thread whose event ends the window (the
// fencing or overwriting thread).
func (r *replayer) close(os *openStore, kind EndKind, endTID int32, endTS *threadState, endVC vclock.ID) {
	os.closed = true
	if r.onWindow != nil {
		r.onWindow(StoreWindow{
			StoreSite: os.site, TID: os.tid, Addr: os.addr, Size: os.size,
			Start: os.openIdx, End: r.stats.Events - 1, EndKind: kind,
		})
	}
	var eff lockset.Set
	switch {
	case !r.cfg.EffectiveLockset:
		// Ablation: traditional per-access lockset.
		eff = os.set
	case kind == EndNone:
		eff = nil
	case os.tid == endTID:
		// Same thread: timestamps distinguish distinct critical sections of
		// the same lock (Fig. 2d).
		eff = lockset.IntersectExact(os.set, endTS.set)
	default:
		// The window is ended by another thread (cross-thread flush+fence
		// helping, or an overwrite). Timestamps are thread-local and cannot
		// be compared, so the intersection considers lock identity only —
		// the paper's definition with its within-thread timestamp extension
		// inapplicable.
		eff = lockset.IntersectLocks(os.set, endTS.set)
	}
	if kind == EndPersist && r.cfg.IRH {
		if p, ok := r.pub[os.addr]; !ok || !p.published {
			// Explicitly persisted before the address became visible to a
			// second thread: initialization, not a race candidate (§3.1.3).
			r.stats.IRHDroppedStores++
			return
		}
	}
	r.record(os, kind, eff, endVC)
}

func (r *replayer) record(os *openStore, kind EndKind, eff lockset.Set, endVC vclock.ID) {
	effID := r.ls.Intern(eff.StripTS())
	key := storeKey{
		tid: os.tid, addr: os.addr, size: os.size, site: os.site,
		eff: effID, start: os.start, end: endVC, endKind: kind,
	}
	if idx, ok := r.stores[key]; ok {
		r.storeList[idx].Count++
	} else {
		r.stores[key] = int32(len(r.storeList))
		r.storeList = append(r.storeList, StoreData{
			TID: os.tid, Addr: os.addr, Size: os.size, Site: os.site,
			Eff: effID, Start: os.start, End: endVC, EndKind: kind, Count: 1,
		})
	}
	r.stats.DynamicStores++
}

// finish closes every store still unpersisted when the trace ends: their
// windows are unbounded, so no lock protects them (a crash at any later
// point loses the value) and their effective lockset is empty.
func (r *replayer) finish() {
	// Deterministic record order: walk still-open lines in address order.
	lineKeys := make([]uint64, 0, len(r.lines))
	for line := range r.lines {
		lineKeys = append(lineKeys, line)
	}
	sort.Slice(lineKeys, func(i, j int) bool { return lineKeys[i] < lineKeys[j] })
	for _, line := range lineKeys {
		for _, os := range r.lines[line] {
			if os.closed {
				continue
			}
			os.closed = true
			if r.onWindow != nil {
				r.onWindow(StoreWindow{
					StoreSite: os.site, TID: os.tid, Addr: os.addr, Size: os.size,
					Start: os.openIdx, End: r.stats.Events, EndKind: EndNone,
				})
			}
			r.stats.UnpersistedAtEnd++
			var eff lockset.Set
			if !r.cfg.EffectiveLockset {
				eff = os.set
			}
			r.record(os, EndNone, eff, NoVC)
		}
	}
	r.stats.StoreRecords = len(r.storeList)
	r.stats.LoadRecords = len(r.loadList)
}
