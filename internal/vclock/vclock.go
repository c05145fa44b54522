// Package vclock implements Fidge/Mattern vector clocks with a logical
// counter per thread, as used by HawkSet's inter-thread happens-before
// analysis (§3.1.2), plus an interning table so that clocks are shared
// across PM accesses and identified by small integers (§4: "Locksets and
// vector clocks are shared across PM accesses ... unique and identifiable by
// a unique integer").
package vclock

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// VC is a vector clock: VC[i] is the logical time of thread i. Clocks may
// have different lengths; missing trailing components are zero.
type VC []uint32

// Clone returns a copy of v.
func (v VC) Clone() VC {
	out := make(VC, len(v))
	copy(out, v)
	return out
}

// Get returns component i (zero if beyond the clock's length).
func (v VC) Get(i int) uint32 {
	if i < len(v) {
		return v[i]
	}
	return 0
}

// Bump increments component i in place, growing the clock as needed, and
// returns the (possibly reallocated) clock.
func (v VC) Bump(i int) VC {
	for len(v) <= i {
		v = append(v, 0)
	}
	v[i]++
	return v
}

// Join sets v to the componentwise maximum of v and o, returning the
// (possibly reallocated) clock. Used at thread join (§3.1.2 rule iii).
func (v VC) Join(o VC) VC {
	for len(v) < len(o) {
		v = append(v, 0)
	}
	for i, c := range o {
		if c > v[i] {
			v[i] = c
		}
	}
	return v
}

// Leq reports whether v happens-before-or-equals o: every component of v is
// ≤ the corresponding component of o.
func Leq(v, o VC) bool {
	for i := 0; i < len(v) || i < len(o); i++ {
		if v.Get(i) > o.Get(i) {
			return false
		}
	}
	return true
}

// String renders the clock as a tuple, e.g. "(3,0,1)".
func (v VC) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	b.WriteByte(')')
	return b.String()
}

// ID identifies an interned clock. The zero ID is the empty (all-zero)
// clock.
type ID int32

// NoOwner marks an interned clock with no recorded owning thread.
const NoOwner int32 = -1

// Table interns vector clocks behind integer IDs. Not safe for concurrent
// use while interning; stage ③'s shards only read it.
//
// Alongside each clock the table can record the thread that owns the clock
// (the thread whose event the clock timestamps); with that thread's own
// component it forms the FastTrack-style (tid, tick) epoch. For an owned
// clock a, happens-before reduces to one component compare:
// Leq(a, b) ⇔ a[tid] ≤ b[tid], because a thread's component is advanced
// only by that thread and propagates to other clocks only via create/join
// edges that carry the whole clock. See Epoch.Leq, on which LeqID is built.
// A construction that breaks that premise calls Disown, and every compare is
// a full walk from then on.
type Table struct {
	byHash map[uint64][]ID
	clocks []VC
	owners []int32 // owning thread per ID (NoOwner when unknown)
	// disowned is set by Disown: InternOwned records no owner any more.
	disowned bool
}

// NewTable returns a table whose ID 0 is the empty clock.
func NewTable() *Table {
	return &Table{
		byHash: make(map[uint64][]ID),
		clocks: []VC{nil},
		owners: []int32{NoOwner},
	}
}

func hashVC(v VC) uint64 {
	h := fnv.New64a()
	var b [4]byte
	// Trailing zeros must not affect the hash: (1,0) == (1).
	n := len(v)
	for n > 0 && v[n-1] == 0 {
		n--
	}
	for _, c := range v[:n] {
		b[0] = byte(c)
		b[1] = byte(c >> 8)
		b[2] = byte(c >> 16)
		b[3] = byte(c >> 24)
		h.Write(b[:]) //nolint:errcheck // fnv never errors
	}
	return h.Sum64()
}

func equalVC(a, b VC) bool {
	for i := 0; i < len(a) || i < len(b); i++ {
		if a.Get(i) != b.Get(i) {
			return false
		}
	}
	return true
}

// Intern returns the canonical ID for v, copying it if new.
func (t *Table) Intern(v VC) ID {
	return t.InternOwned(v, NoOwner)
}

// InternOwned interns v and, when owner is a valid thread index, records
// that v is a thread-event clock of owner — enabling the O(1) epoch compare
// of Epoch.Leq for the returned ID. If the clock value was first interned
// without an owner, the ownership is attached now; if it already has a
// different owner, the first one is kept (both are valid: either owner's
// component works as an epoch for this value).
func (t *Table) InternOwned(v VC, owner int32) ID {
	if t.disowned {
		owner = NoOwner
	}
	n := len(v)
	for n > 0 && v[n-1] == 0 {
		n--
	}
	if n == 0 {
		return 0
	}
	h := hashVC(v)
	for _, id := range t.byHash[h] {
		if equalVC(t.clocks[id], v) {
			if t.owners[id] == NoOwner {
				t.owners[id] = owner
			}
			return id
		}
	}
	id := ID(len(t.clocks))
	t.clocks = append(t.clocks, v.Clone())
	t.byHash[h] = append(t.byHash[h], id)
	t.owners = append(t.owners, owner)
	return id
}

// Get resolves an ID to its clock. The returned slice must not be mutated.
func (t *Table) Get(id ID) VC { return t.clocks[id] }

// Epoch is the left operand of a happens-before compare, resolved once from
// an interned clock so that it can be compared against many clocks: the
// clock and the range of components that decide the compare — the owner's
// alone for an owned clock, every component for an unowned one.
type Epoch struct {
	clock  VC
	lo, hi int32
}

// Epoch resolves the epoch of clock a.
func (t *Table) Epoch(a ID) Epoch {
	c := t.clocks[a]
	if o := t.owners[a]; o != NoOwner {
		return Epoch{clock: c, lo: o, hi: o + 1}
	}
	return Epoch{clock: c, hi: int32(len(c))}
}

// Clock returns the resolved clock, for use as the right operand of another
// epoch's Leq.
func (e Epoch) Clock() VC { return e.clock }

// Leq reports Leq(e.Clock(), b). For an owned clock that is the O(1) epoch
// compare e[owner] ≤ b[owner]; otherwise it is the full component walk. The
// epoch reduction is exact — not an approximation — for clocks produced by a
// create/join happens-before construction in which each thread's component
// is advanced only by that thread (the replayer interns with ownership only
// at thread event clocks, and calls Disown when a trace breaks the
// guarantee).
func (e Epoch) Leq(b VC) bool {
	for i := e.lo; i < e.hi; i++ {
		if e.clock.Get(int(i)) > b.Get(int(i)) {
			return false
		}
	}
	return true
}

// LeqID reports Leq(Get(a), Get(b)) by the epoch compare of a against b.
func (t *Table) LeqID(a, b ID) bool {
	return a == b || t.Epoch(a).Leq(t.clocks[b])
}

// Disown drops every ownership record, including those of clocks interned
// later, so LeqID answers with the full component walk from now on. Call it
// when a component stops being advanced by one thread only: a thread index
// reused while its first holder's clocks are still in play gives two
// threads one component, and the one-component compare would then order
// clocks that full Leq leaves concurrent.
func (t *Table) Disown() {
	t.disowned = true
	for i := range t.owners {
		t.owners[i] = NoOwner
	}
}

// Len returns the number of interned clocks.
func (t *Table) Len() int { return len(t.clocks) }
