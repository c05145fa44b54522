// Package lockset implements locksets whose entries carry the acquisition
// timestamp of a thread-local logical clock, the extension HawkSet uses to
// detect a lock being released and reacquired between a store and its
// persistency (§3.1.2, Fig. 2d). It also provides an interning table so
// locksets are shared across PM accesses and compared by integer ID (§4).
package lockset

import (
	"fmt"
	"sort"
	"strings"
)

// Entry is one held lock: its identity and the value of the owning thread's
// logical clock when it was acquired. The clock is incremented on every lock
// acquisition, so two holds of the same lock in different critical sections
// have different timestamps.
type Entry struct {
	Lock uint64
	TS   uint32
}

// Set is a lockset sorted by lock identity. The empty (nil) set means no
// locks held.
type Set []Entry

// Clone returns a copy of s.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Add returns s with (lock, ts) inserted, preserving order. Acquiring a lock
// already in the set (recursive locking) refreshes its timestamp; when the
// entry already carries the requested timestamp — always the case with
// timestamps disabled, where every ts is 0 — s is returned unchanged
// instead of cloned.
func (s Set) Add(lock uint64, ts uint32) Set {
	i := sort.Search(len(s), func(i int) bool { return s[i].Lock >= lock })
	if i < len(s) && s[i].Lock == lock {
		if s[i].TS == ts {
			return s
		}
		out := s.Clone()
		out[i].TS = ts
		return out
	}
	out := make(Set, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, Entry{Lock: lock, TS: ts})
	return append(out, s[i:]...)
}

// Remove returns s without lock.
func (s Set) Remove(lock uint64) Set {
	i := sort.Search(len(s), func(i int) bool { return s[i].Lock >= lock })
	if i >= len(s) || s[i].Lock != lock {
		return s
	}
	out := make(Set, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}

// Holds reports whether lock is in the set.
func (s Set) Holds(lock uint64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].Lock >= lock })
	return i < len(s) && s[i].Lock == lock
}

// AppendIntersectExact appends to dst the entries present in both sets with
// matching lock identity AND timestamp, so a caller can reuse one buffer
// across intersections. This is the effective-lockset intersection within
// one thread: a lock released and reacquired between the store and the
// persistency has different timestamps and drops out (§3.1.2).
func AppendIntersectExact(dst, a, b Set) Set {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Lock < b[j].Lock:
			i++
		case a[i].Lock > b[j].Lock:
			j++
		default:
			if a[i].TS == b[j].TS {
				dst = append(dst, a[i])
			}
			i++
			j++
		}
	}
	return dst
}

// AppendIntersectLocks appends to dst the entries whose lock identity
// appears in both sets, ignoring timestamps. Timestamps are thread-local, so
// inter-thread intersections (Algorithm 1 line 18) must ignore them (§3.1.2:
// "the timestamp of the effective lockset is ignored since it is only
// meaningful in the thread-local context"). Entries from a are appended.
func AppendIntersectLocks(dst, a, b Set) Set {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Lock < b[j].Lock:
			i++
		case a[i].Lock > b[j].Lock:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// DisjointLocks reports whether the two sets share no lock identity — the
// race condition test, cheaper than materializing the intersection.
func DisjointLocks(a, b Set) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Lock < b[j].Lock:
			i++
		case a[i].Lock > b[j].Lock:
			j++
		default:
			return false
		}
	}
	return true
}

// String renders the set as "{A@1, B@2}" for diagnostics.
func (s Set) String() string {
	if len(s) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "L%d@%d", e.Lock, e.TS)
	}
	b.WriteByte('}')
	return b.String()
}

// ID identifies an interned lockset. ID 0 is the empty set.
type ID int32

// Table interns locksets. Not safe for concurrent use.
//
// Each interned set carries a 64-bit lock-identity signature (one bit per
// lock, position derived from a hash of the lock ID). Signatures give a
// walk-free sufficient test for disjointness: if two signatures share no
// bit, the sets share no lock. See Sig and SigOf.
//
// The index is an open-addressing hash table of IDs with linear probing,
// kept at most half full. A lookup hashes the set in place and compares
// candidates entry by entry, so interning a set already in the table
// allocates nothing.
type Table struct {
	sets   []Set
	sigs   []uint64
	hashes []uint64 // hashes[id]: hashSet of sets[id], for rehashing
	slots  []ID     // 0 = empty; the empty set (ID 0) is never indexed
}

// NewTable returns a table whose ID 0 is the empty set.
func NewTable() *Table {
	return &Table{sets: []Set{nil}, sigs: []uint64{0}, hashes: []uint64{0}, slots: make([]ID, 16)}
}

// SigOf computes the lock-identity signature of a set: the union of one bit
// per lock. Two sets sharing a lock necessarily share the lock's bit, so
// sigA & sigB == 0 proves DisjointLocks(a, b); a nonzero intersection is
// inconclusive (hash collisions set the same bit for different locks).
func SigOf(s Set) uint64 {
	var sig uint64
	for _, e := range s {
		// Fibonacci hash of the lock ID picks the bit; the multiply spreads
		// clustered small IDs across the word.
		sig |= 1 << ((e.Lock * 0x9E3779B97F4A7C15) >> 58)
	}
	return sig
}

// Sig returns the precomputed signature of an interned set.
func (t *Table) Sig(id ID) uint64 { return t.sigs[id] }

// hashSet hashes s, with every timestamp read as zero when strip is set.
func hashSet(s Set, strip bool) uint64 {
	h := uint64(len(s))
	for _, e := range s {
		ts := e.TS
		if strip {
			ts = 0
		}
		h = (h ^ e.Lock) * 0x9E3779B97F4A7C15
		h = (h ^ uint64(ts)) * 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	return h
}

// equalSet reports whether stored equals s, with s's timestamps read as zero
// when strip is set.
func equalSet(stored, s Set, strip bool) bool {
	if len(stored) != len(s) {
		return false
	}
	for i, e := range s {
		if strip {
			e.TS = 0
		}
		if stored[i] != e {
			return false
		}
	}
	return true
}

// Intern returns the canonical ID for s, copying it if new.
func (t *Table) Intern(s Set) ID { return t.intern(s, false) }

// InternLocks returns the ID of s's lock identities: s with every
// acquisition timestamp zeroed, copied only if new. Timestamps exist only to
// compute effective locksets within one thread (store vs persist); once an
// access record is produced, inter-thread comparisons ignore them (§3.1.2),
// so records intern timestamp-free sets — otherwise every critical
// section's monotonically growing clock would make every lockset unique and
// defeat the sharing that §4's optimizations rely on.
func (t *Table) InternLocks(s Set) ID { return t.intern(s, true) }

func (t *Table) intern(s Set, strip bool) ID {
	if len(s) == 0 {
		return 0
	}
	h := hashSet(s, strip)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if id := t.slots[i]; t.hashes[id] == h && equalSet(t.sets[id], s, strip) {
			return id
		}
	}
	id := ID(len(t.sets))
	c := s.Clone()
	if strip {
		for k := range c {
			c[k].TS = 0
		}
	}
	t.sets = append(t.sets, c)
	t.sigs = append(t.sigs, SigOf(c))
	t.hashes = append(t.hashes, h)
	t.slots[i] = id
	if 2*len(t.sets) > len(t.slots) {
		t.rehash()
	}
	return id
}

// rehash doubles the index.
func (t *Table) rehash() {
	t.slots = make([]ID, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for id := 1; id < len(t.sets); id++ {
		i := t.hashes[id] & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = ID(id)
	}
}

// Get resolves an ID. The returned set must not be mutated.
func (t *Table) Get(id ID) Set { return t.sets[id] }

// Len returns the number of interned sets.
func (t *Table) Len() int { return len(t.sets) }
