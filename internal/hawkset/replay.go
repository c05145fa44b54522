package hawkset

import (
	"math/rand/v2"
	"sort"
	"unsafe"

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
	// lines holds, per cache line, the open (visible-but-unpersisted) stores
	// and, under AllocAware, how many instrumented allocations have covered
	// the line: publication state older than its line's current epoch is
	// stale and resets on the next touch.
	lines lineTab
	// pub tracks, per access start address, which thread touched it first
	// and whether a second thread has made it public (§3.1.3). It is keyed
	// by address, not by line, so it is a table of its own.
	pub pubTab

	// Dedup state (the grouping optimization, §4): each distinct load and
	// store record is appended once to its table's log, and a repeat adds to
	// the record's count in place.
	stores recTab[StoreData]
	loads  recTab[LoadData]
	// effBuf is the buffer close computes effective locksets in.
	effBuf lockset.Set

	// free holds the openStore records that no list holds any more, and
	// newOpenStore takes from it before it allocates: stage ① opens one
	// record per dynamic store but holds only the windows still open, plus
	// closed ones a line list or a flush snapshot has not yet let go of.
	// allocated counts the records ever allocated; all but the free ones
	// are in use.
	free      []*openStore
	allocated int
	// coveredPool recycles the pendingFlush covered slices that fence
	// retires every persist cycle, and openPool the arrays of line open
	// lists that emptied.
	coveredPool [][]*openStore
	openPool    [][]*openStore

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
	// mWindowRecords counts the openStore records in use, the memory those
	// entries and the flush snapshots point at: a record that is never
	// recycled pushes it without bound even when every list is swept. The
	// tables count the bytes of their segments and directories in
	// hawkset.replay.table_bytes (segDir.bytes), and the record logs the
	// bytes of their chunks in hawkset.replay.record_bytes (recTab.logBytes).
	mEvents        *obs.Counter
	mOpenStores    *obs.Gauge
	mLines         *obs.Gauge
	mWindowRecords *obs.Gauge
}

// openStore is a visible store whose persistence window is still open, or
// closed but still held by a line's open list or a flush snapshot.
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
	// refs counts the lists that hold the record: one open list per line
	// it covers and every pending flush snapshot that took it. An open
	// record sits in its lines' lists, so a record only reaches zero once
	// it is closed and swept out of the last of them.
	refs int32
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
	// lsID caches the interned lock identities of set; lsOK is cleared on
	// every lock event so loads between lock transitions — the overwhelming
	// majority — intern nothing.
	lsID lockset.ID
	lsOK bool
	// pending holds flush snapshots awaiting this thread's next fence.
	pending []pendingFlush
}

type pendingFlush struct {
	line    uint64
	covered []*openStore
}

// Every dynamic PM access probes several of the replayer's tables, so each
// table has its own lookup, kept to one directory load and a short run of
// adjacent slots: no bucket chain.

// hash2 mixes two words into a table hash.
func hash2(a, b uint64) uint64 {
	h := a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	return h ^ h>>32
}

const (
	segBits = 12
	segSize = 1 << segBits // slots per segment
	segMask = segSize - 1
)

// segDir is the directory of an extendible-hashing table (Fagin,
// Nievergelt, Pippenger and Strong, "Extendible Hashing — A Fast Access
// Method for Dynamic Files", TODS 1979), which all four tables share.
// Directory slot h>>(64-global) holds the segment of hash h, whose slots
// are probed linearly from h&segMask, wrapping within the segment. A
// segment of local depth d holds the entries whose hashes share its top d
// bits, and it fills the 2^(global-d) aligned directory slots that begin
// with those bits. A segment that an insert leaves more than three
// quarters full splits in two by the next hash bit, after the directory
// doubles if the segment's depth equals the global depth. So a table grows
// one segment at a time and never holds a copy of itself; segments never
// merge. A table allocates its first segment at its first insert.
//
// seed is mixed into every hash, so input cannot choose entries whose
// hashes share their top bits: thousands of those would split one segment
// after another and double the directory each time without bound. No
// result depends on the layout it picks.
type segDir[E slot] struct {
	dir    []segRef[E]
	global uint8
	seed   uint64
	// bytes counts the bytes held in segments and directories, across all
	// of a replayer's tables (nil without Config.Metrics).
	bytes *obs.Gauge
}

// segRef is a directory slot: the slots of a segment, for probes, and the
// count and depth its aliases share, for inserts and splits. The slots are
// a slice of segSize, not an array pointer: a probe that reslices them to
// segSize checks their length in registers once, where an array pointer
// costs a nil check, a load of the segment's first cache line, at every
// step.
type segRef[E slot] struct {
	slots []E
	seg   *segment
}

type segment struct {
	used  int // slots in use
	depth uint8
}

// slot is a table entry. home returns its hash under the table's seed and
// whether the slot is in use.
type slot interface {
	home(seed uint64) (uint64, bool)
}

// at returns the directory slot of hash h.
func (d *segDir[E]) at(h uint64) segRef[E] { return d.dir[h>>(64-d.global)] }

// newSeg allocates an empty segment of the given depth.
func (d *segDir[E]) newSeg(depth uint8) segRef[E] {
	d.bytes.Add(int64(unsafe.Sizeof([segSize]E{}) + unsafe.Sizeof(segment{})))
	return segRef[E]{make([]E, segSize), &segment{depth: depth}}
}

// init gives an empty table its first segment.
func (d *segDir[E]) init() {
	d.dir = []segRef[E]{d.newSeg(0)}
	d.bytes.Add(int64(unsafe.Sizeof(segRef[E]{})))
}

// grew counts e, an empty slot of the table the caller has just filled,
// and splits its segment if that leaves more than three quarters of the
// segment's slots in use. It reports a split, which moves entries: a slot
// taken before it is stale.
func (d *segDir[E]) grew(e *E) bool {
	h, _ := (*e).home(d.seed)
	s := d.at(h).seg
	if s.used++; 4*s.used <= 3*segSize {
		return false
	}
	d.split(h)
	return true
}

// split divides the segment of hash h by the next hash bit. The half of its
// directory slots whose index has that bit set moves to one new segment,
// and the old segment is rebuilt in place: a walk that starts after an
// empty slot visits every probe run from its start, so each entry it lifts
// out lands, in its own segment, at or before the slot it left, where no
// later lift disturbs it.
func (d *segDir[E]) split(h uint64) {
	old := d.at(h)
	if old.seg.depth == d.global {
		dir := make([]segRef[E], 2*len(d.dir))
		for i, r := range d.dir {
			dir[2*i], dir[2*i+1] = r, r
		}
		d.bytes.Add(int64(len(d.dir)) * int64(unsafe.Sizeof(segRef[E]{})))
		d.dir, d.global = dir, d.global+1
	}
	old.seg.depth++
	n := 1 << (d.global - old.seg.depth) // directory slots per half
	upper := int(h>>(64-d.global))&^(2*n-1) + n
	nu := d.newSeg(old.seg.depth)
	for i := upper; i < upper+n; i++ {
		d.dir[i] = nu
	}
	inUse := func(s []E, i uint64) bool {
		_, used := s[i&segMask].home(d.seed)
		return used
	}
	start := uint64(0)
	for inUse(old.slots, start) {
		start++
	}
	old.seg.used = 0
	for i := start + 1; i <= start+segSize; i++ {
		e := &old.slots[i&segMask]
		eh, used := (*e).home(d.seed)
		if !used {
			continue
		}
		v := *e
		*e = *new(E)
		to := d.at(eh)
		j := eh
		for inUse(to.slots, j) {
			j++
		}
		to.slots[j&segMask] = v
		to.seg.used++
	}
}

// all yields every slot of every segment, in use or not, each once.
func (d *segDir[E]) all(yield func(*E) bool) {
	for i := 0; i < len(d.dir); i += 1 << (d.global - d.dir[i].seg.depth) {
		s := d.dir[i].slots
		for k := range s {
			if !yield(&s[k]) {
				return
			}
		}
	}
}

// lineTab maps a cache line to its open stores and allocation epoch. A line
// left with no open store and epoch 0 is deleted by backward shift, so the
// table holds only live lines and needs no tombstones. An entry that find
// or insert returns stays valid until the next insert.
type lineTab struct {
	segDir[lineEntry]
	open int // lines holding open stores
}

type lineEntry struct {
	key   uint64 // line + 1; 0 marks an empty slot
	epoch uint64 // instrumented allocations that covered the line
	open  []*openStore
}

func (e lineEntry) home(seed uint64) (uint64, bool) { return hash2((e.key-1)^seed, 0), e.key != 0 }

// find returns the entry of line, or nil.
func (t *lineTab) find(line uint64) *lineEntry {
	if t.dir == nil {
		return nil
	}
	h := hash2(line^t.seed, 0)
	s := t.at(h).slots[:segSize]
	for i := h; ; i++ {
		switch e := &s[i&segMask]; e.key {
		case line + 1:
			return e
		case 0:
			return nil
		}
	}
}

// insert returns the entry of line, adding an empty one if it is absent.
func (t *lineTab) insert(line uint64) *lineEntry {
	if t.dir == nil {
		t.init()
	}
	h := hash2(line^t.seed, 0)
	s := t.at(h).slots[:segSize]
	for i := h; ; i++ {
		switch e := &s[i&segMask]; e.key {
		case line + 1:
			return e
		case 0:
			e.key = line + 1
			if t.grew(e) {
				return t.find(line)
			}
			return e
		}
	}
}

// remove deletes entry e. Each later entry of its probe run whose home slot
// does not lie between the hole and itself moves back into the hole, so
// every remaining entry stays reachable from its home slot. The run wraps
// within the segment, as probes do.
func (t *lineTab) remove(e *lineEntry) {
	h, _ := e.home(t.seed)
	r := t.at(h)
	s := r.slots[:segSize]
	i := h & segMask
	for &s[i] != e {
		i = (i + 1) & segMask
	}
	for j := (i + 1) & segMask; s[j].key != 0; j = (j + 1) & segMask {
		hj, _ := s[j].home(t.seed)
		if home := hj & segMask; (j-home)&segMask >= (j-i)&segMask {
			s[i] = s[j]
			i = j
		}
	}
	s[i] = lineEntry{}
	r.seg.used--
}

// epoch returns the allocation epoch of line.
func (t *lineTab) epoch(line uint64) uint64 {
	if e := t.find(line); e != nil {
		return e.epoch
	}
	return 0
}

// pubTab maps an access start address to its publication state. Entries are
// never deleted.
type pubTab struct{ segDir[pubEntry] }

type pubEntry struct {
	addr      uint64
	epoch     uint64 // the start line's allocation epoch at the first touch
	first     int32
	published bool
	live      bool // the slot is in use (address 0 is a valid key)
}

func (e pubEntry) home(seed uint64) (uint64, bool) { return hash2(e.addr^seed, 0), e.live }

// lookup returns the entry for addr, or the empty slot where it belongs. The
// caller fills the slot to insert and must then call grew.
func (t *pubTab) lookup(addr uint64) *pubEntry {
	if t.dir == nil {
		t.init()
	}
	h := hash2(addr^t.seed, 0)
	s := t.at(h).slots[:segSize]
	for i := h; ; i++ {
		e := &s[i&segMask]
		if !e.live || e.addr == addr {
			return e
		}
	}
}

// recTab dedups the records of one kind. Each distinct record is appended
// once to log, and the table's slots index the log: a slot holds the top 32
// bits of the record's seeded hash, its fingerprint, and its ordinal. A
// probe confirms a fingerprint match against the record in the log, so the
// fingerprint may collide; a split re-homes a slot from the fingerprint
// alone, so it never reads the log. Entries are never deleted.
type recTab[T record[T]] struct {
	segDir[recSlot]
	log Records[T]
	// logBytes counts the bytes of the logs' chunks, across a replayer's two
	// tables (nil without Config.Metrics).
	logBytes *obs.Gauge
}

// record is a record type: same reports whether the record equals o but for
// their counts.
type record[T any] interface {
	same(o *T) bool
}

func (d LoadData) same(o *LoadData) bool   { d.Count = o.Count; return d == *o }
func (d StoreData) same(o *StoreData) bool { d.Count = o.Count; return d == *o }

// recSlot is an index slot: the fingerprint in the high half and the
// ordinal + 1 in the low half; 0 marks an empty slot.
type recSlot uint64

// home spreads the fingerprint over both halves of the hash, so that the
// directory reads it from the top bits and the probe starts at its low bits.
func (s recSlot) home(uint64) (uint64, bool) { fp := uint64(s) >> 32; return fp<<32 | fp, s != 0 }

// recHash hashes a record's address and three words of its other fields
// by two chained hash2 rounds, so it costs two multiply-hashes, not three.
// The seed enters the first round, whose output the second mixes with c, so
// input that cannot see the seed cannot choose records whose hashes
// collide.
func recHash(seed, addr, b, c, d uint64) uint64 {
	return hash2(hash2(addr^seed, b)^c, d)
}

// hash returns the record's hash under seed, which ignores its count.
func (d *LoadData) hash(seed uint64) uint64 {
	return recHash(seed, d.Addr, uint64(d.Size)<<32|uint64(uint32(d.TID)),
		uint64(uint32(d.Site))<<32|uint64(uint32(d.LS)), uint64(uint32(d.VC)))
}

// hash returns the record's hash under seed, which ignores its count. The
// end kind, the one field left, picks the seed.
func (d *StoreData) hash(seed uint64) uint64 {
	return recHash(seed+uint64(d.EndKind), d.Addr, uint64(d.Size)<<32|uint64(uint32(d.TID)),
		uint64(uint32(d.Site))<<32|uint64(uint32(d.Eff)), uint64(uint32(d.Start))<<32|uint64(uint32(d.End)))
}

// add returns the record equal to rec but for its count, or appends rec to
// the log and returns it with added set. h is rec's hash.
func (t *recTab[T]) add(rec T, h uint64) (p *T, added bool) {
	if t.dir == nil {
		t.init()
	}
	fp := h >> 32
	h = fp<<32 | fp
	s := t.at(h).slots[:segSize]
	for i := h; ; i++ {
		e := &s[i&segMask]
		if *e == 0 {
			*e = recSlot(fp<<32 | uint64(t.log.n+1))
			t.grew(e)
			return t.log.push(rec, t.logBytes), true
		}
		if uint64(*e)>>32 == fp {
			if p := t.log.At(int(uint32(*e) - 1)); rec.same(p) {
				return p, false
			}
		}
	}
}

const (
	chunkBits = 10
	chunkSize = 1 << chunkBits // records per chunk
	chunkMask = chunkSize - 1
)

// Records is a log of replay records of one kind, in first-appearance
// order, held in fixed-size chunks that never move: replay appends a record
// once and counts its repeats in place, and stage ③ reads it there. The
// chunks are slices for the reason segRef's slots are.
type Records[T any] struct {
	chunks [][]T
	n      int
}

// Len returns the number of records.
func (l *Records[T]) Len() int { return l.n }

// At returns record i, for 0 ≤ i < Len.
func (l *Records[T]) At(i int) *T { return &l.chunks[i>>chunkBits][i&chunkMask] }

// push appends v and returns it in place. A new chunk's bytes count in
// bytes.
func (l *Records[T]) push(v T, bytes *obs.Gauge) *T {
	if l.n == len(l.chunks)*chunkSize {
		l.chunks = append(l.chunks, make([]T, chunkSize))
		bytes.Add(int64(unsafe.Sizeof([chunkSize]T{})))
	}
	p := l.At(l.n)
	*p = v
	l.n++
	return p
}

func newReplayer(cfg Config) *replayer {
	r := &replayer{
		cfg:            cfg,
		ls:             lockset.NewTable(),
		vc:             vclock.NewTable(),
		threads:        make(map[int32]*threadState),
		mEvents:        cfg.Metrics.Counter("hawkset.replay.events"),
		mOpenStores:    cfg.Metrics.Gauge("hawkset.replay.open_stores"),
		mLines:         cfg.Metrics.Gauge("hawkset.replay.lines"),
		mWindowRecords: cfg.Metrics.Gauge("hawkset.replay.window_records"),
	}
	tableBytes := cfg.Metrics.Gauge("hawkset.replay.table_bytes")
	recordBytes := cfg.Metrics.Gauge("hawkset.replay.record_bytes")
	r.lines.seed, r.lines.bytes = rand.Uint64(), tableBytes
	r.pub.seed, r.pub.bytes = rand.Uint64(), tableBytes
	r.stores.seed, r.stores.bytes, r.stores.logBytes = rand.Uint64(), tableBytes, recordBytes
	r.loads.seed, r.loads.bytes, r.loads.logBytes = rand.Uint64(), tableBytes, recordBytes
	return r
}

// newOpenStore hands out a recycled openStore record, or a new one when
// none is free.
func (r *replayer) newOpenStore() *openStore {
	var os *openStore
	if n := len(r.free); n > 0 {
		os = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		os = new(openStore)
		r.allocated++
	}
	r.mWindowRecords.Set(int64(r.allocated - len(r.free)))
	return os
}

// release drops one list's hold on os. The last release recycles the
// record, cleared so that it pins no lockset and reads as never opened.
func (r *replayer) release(os *openStore) {
	if os.refs--; os.refs == 0 {
		*os = openStore{}
		r.free = append(r.free, os)
		r.mWindowRecords.Set(int64(r.allocated - len(r.free)))
	}
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

// setOpen writes a compacted open list back to line slot i, keeping the
// retention gauges honest: removed entries decrement mOpenStores, and a line
// left with no open store (and no allocation epoch) leaves the table instead
// of lingering as a dead entry. kept is a prefix of the line's list; the
// rest is cleared, so an array never pins a closed store, and an emptied
// array goes to openPool for the next line that opens a store.
func (r *replayer) setOpen(e *lineEntry, kept []*openStore) {
	if removed := len(e.open) - len(kept); removed > 0 {
		r.mOpenStores.Add(-int64(removed))
		clear(e.open[len(kept):])
	}
	if len(kept) == 0 {
		if len(e.open) > 0 {
			r.lines.open--
			r.openPool = append(r.openPool, e.open[:0])
		}
		kept = nil
	}
	e.open = kept
	if kept == nil && e.epoch == 0 {
		r.lines.remove(e)
	}
	r.mLines.Set(int64(r.lines.open))
}

// compactLine sweeps closed entries out of line entry e.
func (r *replayer) compactLine(e *lineEntry) {
	open := e.open
	kept := open[:0]
	for _, os := range open {
		if !os.closed {
			kept = append(kept, os)
		} else {
			r.release(os)
		}
	}
	r.setOpen(e, kept)
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
				r.lines.insert(line).epoch++
			})
		}
	case trace.KThreadCreate:
		parent := r.thread(e.TID)
		idx := int32(len(r.threads))
		var clock uint32
		if old, exists := r.threads[e.Kid]; exists {
			// The TID is being reused while a state for it is live: clocks
			// interned for the old incarnation share the component the new
			// one will advance, so the per-component ownership the epoch
			// compare relies on no longer holds.
			r.vc.Disown()
			idx = old.idx
			// Lock timestamps go on from the old incarnation's, so a window
			// it opened and the new one ends never takes a lock of each
			// for one critical section (close compares them by TID).
			clock = old.clock
			// The old incarnation's unfenced flushes will never complete.
			for _, pf := range old.pending {
				for _, os := range pf.covered {
					r.release(os)
				}
			}
			old.pending = nil
		}
		parent.vc = parent.vc.Bump(int(parent.idx))
		// Not an owned intern: parent.fresh forces another bump before the
		// next recorded access, so this clock is never an event clock — it
		// exists only to ship the post-create state to the child.
		parent.vcID = r.vc.Intern(parent.vc)
		child := &threadState{idx: idx, clock: clock}
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
		epoch = r.lines.epoch(pmem.LineOf(addr))
	}
	p := r.pub.lookup(addr)
	if !p.live || p.epoch != epoch {
		fresh := !p.live
		*p = pubEntry{addr: addr, epoch: epoch, first: tid, live: true}
		if fresh {
			r.pub.grew(p)
		}
		return false
	}
	if !p.published && p.first != tid {
		p.published = true
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

// spansLines reports whether [addr, addr+size) covers more than one cache
// line.
func spansLines(addr uint64, size uint32) bool {
	if size == 0 {
		return false
	}
	return pmem.LineOf(addr) != pmem.LineOf(lastAddrOf(addr, size))
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
		le := r.lines.find(line)
		if le == nil {
			return
		}
		open := le.open
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
			} else {
				r.release(os)
			}
		}
		r.setOpen(le, kept)
	})
	for _, os := range closedSpanning {
		if os.refs == 0 {
			continue // an earlier sweep already let go of it everywhere
		}
		linesOf(os.addr, os.size, func(line uint64) {
			if le := r.lines.find(line); le != nil {
				r.compactLine(le)
			}
		})
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
		le := r.lines.insert(line)
		if len(le.open) == 0 {
			r.lines.open++
			if n := len(r.openPool); n > 0 {
				le.open = r.openPool[n-1]
				r.openPool = r.openPool[:n-1]
			}
		}
		le.open = append(le.open, os)
		os.refs++
		r.mOpenStores.Add(1)
	})
	r.mLines.Set(int64(r.lines.open))
	if nt {
		// A non-temporal store bypasses the cache: it is already queued for
		// persistence and needs only the thread's next fence.
		linesOf(e.Addr, e.Size, func(line uint64) {
			cv := append(r.getCovered(1), os)
			os.refs++
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
		ts.lsID = r.ls.InternLocks(ts.set)
		ts.lsOK = true
	}
	want := LoadData{TID: e.TID, Addr: e.Addr, Size: e.Size, Site: e.Site, LS: ts.lsID, VC: vcid, Count: 1}
	if d, added := r.loads.add(want, want.hash(r.loads.seed)); !added {
		d.Count++
	}
}

func (r *replayer) flush(e trace.Event) {
	ts := r.thread(e.TID)
	line := pmem.LineOf(e.Addr)
	le := r.lines.find(line)
	if le == nil || len(le.open) == 0 {
		return
	}
	// Snapshot semantics: the flush covers the stores visible now; stores
	// issued after the flush are not persisted by it. Closed entries are
	// swept here even when nothing is left to cover: an all-closed line
	// never enqueues a pendingFlush, so fence's compaction never reaches it
	// and its dead entries (and table entry) would otherwise be retained for
	// the rest of the session.
	open := le.open
	covered := r.getCovered(len(open))
	kept := open[:0]
	for _, os := range open {
		if !os.closed {
			covered = append(covered, os)
			os.refs++
			kept = append(kept, os)
		} else {
			r.release(os)
		}
	}
	r.setOpen(le, kept)
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
			r.release(os)
		}
		r.putCovered(pf.covered)
		if le := r.lines.find(pf.line); le != nil {
			r.compactLine(le)
		}
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
	if kind == EndPersist && r.cfg.IRH {
		if p := r.pub.lookup(os.addr); !p.live || !p.published {
			// Explicitly persisted before the address became visible to a
			// second thread: initialization, not a race candidate (§3.1.3).
			r.stats.IRHDroppedStores++
			return
		}
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
		eff = lockset.AppendIntersectExact(r.effBuf[:0], os.set, endTS.set)
		r.effBuf = eff
	default:
		// The window is ended by another thread (cross-thread flush+fence
		// helping, or an overwrite). Timestamps are thread-local and cannot
		// be compared, so the intersection considers lock identity only —
		// the paper's definition with its within-thread timestamp extension
		// inapplicable.
		eff = lockset.AppendIntersectLocks(r.effBuf[:0], os.set, endTS.set)
		r.effBuf = eff
	}
	r.record(os, kind, eff, endVC)
}

// record adds a closed window to the store records: dynamic stores of
// identical shape collapse into one StoreData with a count (the grouping
// optimization, §4).
func (r *replayer) record(os *openStore, kind EndKind, eff lockset.Set, endVC vclock.ID) {
	want := StoreData{
		TID: os.tid, Addr: os.addr, Size: os.size, Site: os.site,
		Eff: r.ls.InternLocks(eff), Start: os.start, End: endVC, EndKind: kind, Count: 1,
	}
	if d, added := r.stores.add(want, want.hash(r.stores.seed)); !added {
		d.Count++
	}
	r.stats.DynamicStores++
}

// finish closes every store still unpersisted when the trace ends: their
// windows are unbounded, so no lock protects them (a crash at any later
// point loses the value) and their effective lockset is empty.
func (r *replayer) finish() {
	// Deterministic record order: walk still-open lines in address order.
	lines := make([]*lineEntry, 0, r.lines.open)
	for le := range r.lines.all {
		if len(le.open) > 0 {
			lines = append(lines, le)
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].key < lines[j].key })
	for _, le := range lines {
		for _, os := range le.open {
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
	r.stats.StoreRecords = r.stores.log.Len()
	r.stats.LoadRecords = r.loads.log.Len()
}
