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
// Events live in chunks that never move once allocated: appending fills the
// last chunk and starts a new one when it is full, so a recording is never
// copied to grow. Chunk capacity doubles from firstChunk to maxChunk events
// and stays there.
type Trace struct {
	Sites *sites.Table

	full  [][]Event // filled chunks, in trace order
	nfull int       // events in full
	tail  []Event   // the chunk being filled; never grown past its capacity
}

// Chunk capacities, in events (Event is 40 bytes: 160 KiB to 2.5 MiB).
const (
	firstChunk = 4 << 10
	maxChunk   = 64 << 10
)

// New returns an empty trace with a fresh site table.
func New() *Trace {
	return &Trace{Sites: sites.NewTable()}
}

// Append adds an event.
func (t *Trace) Append(e Event) {
	if len(t.tail) == cap(t.tail) {
		t.grow()
	}
	t.tail = append(t.tail, e)
}

// grow retires the full current chunk and starts the next one.
func (t *Trace) grow() {
	next := firstChunk
	if t.tail != nil {
		t.full = append(t.full, t.tail)
		t.nfull += len(t.tail)
		next = min(2*cap(t.tail), maxChunk)
	}
	t.tail = make([]Event, 0, next)
}

// Len returns the number of events.
func (t *Trace) Len() int { return t.nfull + len(t.tail) }

// Events yields the events in trace order.
func (t *Trace) Events() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		for _, c := range t.full {
			for _, e := range c {
				if !yield(e) {
					return
				}
			}
		}
		for _, e := range t.tail {
			if !yield(e) {
				return
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
