// Package trace defines the execution-trace event model shared between the
// instrumented runtime (internal/pmrt, the Intel-PIN substitute) and the
// analyses (internal/hawkset and the baselines). The event set matches
// HawkSet's Instrumentation stage (§3.2 ①): PM accesses (stores, loads,
// non-temporal stores, flushes, fences), synchronization primitives (lock
// acquire/release), thread creation/joining, and (opt-in) PM allocations.
//
// The original tool additionally records mmap calls to identify PM regions
// and filter out the ≈96% of accesses that hit DRAM (§3.1, §4); in this
// reproduction the instrumented runtime's address space is the PM device, so
// every recorded access is a PM access by construction and no region
// filtering is needed.
//
// Events are ordered by their position in the trace, which is the total
// order in which the cooperative scheduler executed them.
package trace

import (
	"fmt"
	"iter"

	"hawkset/internal/sites"
)

// Kind enumerates trace event types.
type Kind uint8

// Event kinds.
const (
	KStore Kind = iota + 1
	KLoad
	KNTStore
	KFlush // CLWB of the line containing Addr
	KFence // SFENCE: completes the thread's pending flushes
	KLockAcq
	KLockRel
	KThreadCreate // TID created Child
	KThreadJoin   // TID joined Child
	// KAlloc records a PM allocation (Addr, Size). Emitted only when the
	// runtime is configured to instrument the allocator — the §7 extension
	// HawkSet leaves out to stay application-agnostic; see
	// pmrt.Config.InstrumentAllocs.
	KAlloc
)

var kindNames = map[Kind]string{
	KStore:        "store",
	KLoad:         "load",
	KNTStore:      "ntstore",
	KFlush:        "flush",
	KFence:        "fence",
	KLockAcq:      "lock",
	KLockRel:      "unlock",
	KThreadCreate: "create",
	KThreadJoin:   "join",
	KAlloc:        "alloc",
}

// Valid reports whether k is one of the kinds above.
func (k Kind) Valid() bool { return k >= KStore && k <= KAlloc }

// String returns the event kind's mnemonic.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one instrumented operation.
type Event struct {
	Kind Kind
	TID  int32    // issuing thread
	Addr uint64   // PM address (store/load/ntstore/flush)
	Size uint32   // access size in bytes (store/load/ntstore)
	Lock uint64   // lock identity (lockacq/lockrel)
	Kid  int32    // child thread (create/join)
	Site sites.ID // program location of the operation
}

// String renders the event for diagnostics and tracedump.
func (e Event) String() string {
	switch e.Kind {
	case KStore, KLoad, KNTStore, KAlloc:
		return fmt.Sprintf("T%d %-7s addr=%#x size=%d", e.TID, e.Kind, e.Addr, e.Size)
	case KFlush:
		return fmt.Sprintf("T%d %-7s line=%#x", e.TID, e.Kind, e.Addr)
	case KFence:
		return fmt.Sprintf("T%d %-7s", e.TID, e.Kind)
	case KLockAcq, KLockRel:
		return fmt.Sprintf("T%d %-7s lock=%d", e.TID, e.Kind, e.Lock)
	case KThreadCreate, KThreadJoin:
		return fmt.Sprintf("T%d %-7s T%d", e.TID, e.Kind, e.Kid)
	}
	return fmt.Sprintf("T%d %s", e.TID, e.Kind)
}

// Trace is a recorded execution: the ordered event list plus the site table
// for resolving event locations. The zero value with a site table,
// &Trace{Sites: st}, is a valid empty trace.
//
// Each event is stored as a 16-byte record (see record) in chunks that never
// move once allocated: appending fills the last chunk and starts a new one
// when it is full, so a recording is never copied to grow. Chunk capacity
// doubles from firstChunk to maxChunk records and stays there. An event
// that does not fit a record is kept whole in the spill list, which is
// chunked too, and its record holds its index there.
type Trace struct {
	Sites *sites.Table

	full  [][]record // filled chunks, in trace order
	nfull int        // records in full
	tail  []record   // the chunk being filled; never grown past its capacity
	spill [][]Event  // events that do not pack, spillChunk to a chunk
}

// Chunk capacities: records from 4 Ki (64 KiB) to 64 Ki (1 MiB), spilled
// events 1 Ki (40 KiB).
const (
	firstChunk = 4 << 10
	maxChunk   = 64 << 10
	spillChunk = 1 << 10
)

// record is one event packed into two words. word holds Addr, or Lock when
// flagLock is set. meta holds, from bit 0:
//
//	kind   4 bits  Kind; 0 marks a spilled event, whose spill index is word
//	flags  2 bits  flagLock: word is Lock; flagKid: val is Kid, not Size
//	tid   11 bits  TID
//	site  20 bits  Site
//	val   27 bits  Size, or Kid
//
// No event pmrt emits sets both Addr and Lock or both Size and Kid, and the
// widths hold every value the apps emit with room to spare (at 2,000
// operations: thread IDs up to 8, site IDs up to 97, allocations up to
// 1 MiB); 27 bits of size cover any allocation in the largest pool, 64 MiB.
type record struct{ word, meta uint64 }

const (
	kindBits = 4
	tidBits  = 11
	siteBits = 20
	valBits  = 27

	kindMask  = 1<<kindBits - 1
	flagLock  = 1 << kindBits
	flagKid   = flagLock << 1
	tidShift  = kindBits + 2
	siteShift = tidShift + tidBits
	valShift  = siteShift + siteBits // valShift+valBits == 64
)

// New returns an empty trace with a fresh site table.
func New() *Trace {
	return &Trace{Sites: sites.NewTable()}
}

// Append adds an event. It packs the event into a record and spills it
// instead when it does not fit one: an invalid kind, Addr and Lock both set,
// Size and Kid both set, or a field outside its width (a negative ID
// included). The packing is written here, not in a function of its own, and
// the spill is out of line: a packing call and an inlined spill made each
// append about a fifth slower.
func (t *Trace) Append(e Event) {
	val := e.Size | uint32(e.Kid)
	meta := uint64(e.Kind) | uint64(e.TID)<<tidShift | uint64(e.Site)<<siteShift | uint64(val)<<valShift
	if e.Lock != 0 {
		meta |= flagLock
	}
	if e.Kid != 0 {
		meta |= flagKid
	}
	r := record{e.Addr | e.Lock, meta}
	if !e.Kind.Valid() || e.Addr != 0 && e.Lock != 0 || e.Size != 0 && e.Kid != 0 ||
		uint32(e.TID)>>tidBits|uint32(e.Site)>>siteBits|val>>valBits != 0 {
		r = t.spillEvent(e)
	}
	if len(t.tail) == cap(t.tail) {
		t.grow()
	}
	t.tail = append(t.tail, r)
}

// grow retires the full current chunk and starts the next one.
func (t *Trace) grow() {
	next := firstChunk
	if t.tail != nil {
		t.full = append(t.full, t.tail)
		t.nfull += len(t.tail)
		next = min(2*cap(t.tail), maxChunk)
	}
	t.tail = make([]record, 0, next)
}

// spillEvent keeps e whole at the end of the spill list and returns the
// record that points at it. Like spilled, it stays out of line: only decoded
// and hand-built traces spill.
//
//go:noinline
func (t *Trace) spillEvent(e Event) record {
	n := len(t.spill)
	if n == 0 || len(t.spill[n-1]) == spillChunk {
		t.spill = append(t.spill, make([]Event, 0, spillChunk))
		n++
	}
	t.spill[n-1] = append(t.spill[n-1], e)
	return record{word: uint64((n-1)*spillChunk + len(t.spill[n-1]) - 1)}
}

// spilled returns the spilled event at index i. It stays out of line to
// keep the loop of Events small.
//
//go:noinline
func (t *Trace) spilled(i uint64) Event { return t.spill[i/spillChunk][i%spillChunk] }

// Len returns the number of events.
func (t *Trace) Len() int { return t.nfull + len(t.tail) }

// Events yields the events in trace order.
func (t *Trace) Events() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		// Records are unpacked field by field into buf, a batch at a time,
		// and yielded from there. Unpacking into the value handed to yield
		// builds each Event in a temporary and copies it at once, and that
		// copy stalls on the temporary's narrow stores: it cost a tenth of
		// a replay's time. Here the stores have retired before buf is read.
		var buf [64]Event
		for i := 0; i <= len(t.full); i++ {
			c := t.tail
			if i < len(t.full) {
				c = t.full[i]
			}
			for len(c) > 0 {
				n := min(len(c), len(buf))
				for j, r := range c[:n] {
					if r.meta&kindMask == 0 {
						buf[j] = t.spilled(r.word)
						continue
					}
					lock := -(r.meta >> kindBits & 1)      // all ones when word is Lock
					kid := -(r.meta >> (kindBits + 1) & 1) // all ones when val is Kid
					val := r.meta >> valShift
					e := &buf[j]
					e.Kind = Kind(r.meta & kindMask)
					e.TID = int32(r.meta >> tidShift & (1<<tidBits - 1))
					e.Addr, e.Lock = r.word&^lock, r.word&lock
					e.Size, e.Kid = uint32(val&^kid), int32(val&kid)
					e.Site = sites.ID(r.meta >> siteShift & (1<<siteBits - 1))
				}
				for _, e := range buf[:n] {
					if !yield(e) {
						return
					}
				}
				c = c[n:]
			}
		}
	}
}

// Counts tallies events by kind (workload/coverage diagnostics).
func (t *Trace) Counts() map[Kind]int {
	m := make(map[Kind]int)
	for e := range t.Events() {
		m[e.Kind]++
	}
	return m
}
