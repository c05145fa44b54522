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
// for resolving event locations.
type Trace struct {
	Events []Event
	Sites  *sites.Table
}

// New returns an empty trace with a fresh site table.
func New() *Trace {
	return &Trace{Sites: sites.NewTable()}
}

// Append adds an event.
func (t *Trace) Append(e Event) { t.Events = append(t.Events, e) }

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// Counts tallies events by kind (workload/coverage diagnostics).
func (t *Trace) Counts() map[Kind]int {
	m := make(map[Kind]int)
	for _, e := range t.Events {
		m[e.Kind]++
	}
	return m
}

// Threads returns the number of distinct threads appearing in the trace.
func (t *Trace) Threads() int {
	max := int32(-1)
	for _, e := range t.Events {
		if e.TID > max {
			max = e.TID
		}
		if (e.Kind == KThreadCreate || e.Kind == KThreadJoin) && e.Kid > max {
			max = e.Kid
		}
	}
	return int(max + 1)
}
