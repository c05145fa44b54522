package lockset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddRemoveHolds(t *testing.T) {
	var s Set
	s = s.Add(5, 1)
	s = s.Add(2, 2)
	s = s.Add(9, 3)
	if !s.Holds(5) || !s.Holds(2) || !s.Holds(9) || s.Holds(3) {
		t.Fatalf("membership wrong: %v", s)
	}
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].Lock < s[j].Lock }) {
		t.Fatalf("set not sorted: %v", s)
	}
	s = s.Remove(2)
	if s.Holds(2) || len(s) != 2 {
		t.Fatalf("remove failed: %v", s)
	}
	s = s.Remove(42) // absent: no-op
	if len(s) != 2 {
		t.Fatalf("removing absent lock changed set: %v", s)
	}
}

func TestAddIsPersistent(t *testing.T) {
	// Add must not mutate the original (locksets are shared across accesses).
	s := Set{}.Add(1, 1)
	s2 := s.Add(2, 2)
	if len(s) != 1 || len(s2) != 2 {
		t.Fatalf("Add mutated receiver: %v %v", s, s2)
	}
	s3 := s2.Remove(1)
	if len(s2) != 2 || len(s3) != 1 {
		t.Fatalf("Remove mutated receiver: %v %v", s2, s3)
	}
}

func TestReacquireRefreshesTimestamp(t *testing.T) {
	s := Set{}.Add(1, 1)
	s = s.Add(1, 7)
	if len(s) != 1 || s[0].TS != 7 {
		t.Fatalf("reacquire: %v", s)
	}
}

// TestFigure2d is the paper's release/reacquire scenario: the same lock
// protects both the store and the persistency, but with different
// timestamps, so the exact intersection — the effective lockset — is empty.
func TestFigure2d(t *testing.T) {
	storeLS := Set{}.Add(1, 1)   // Lock A acquired at ts 1
	persistLS := Set{}.Add(1, 2) // A released and reacquired: ts 2
	if eff := AppendIntersectExact(nil, storeLS, persistLS); len(eff) != 0 {
		t.Fatalf("effective lockset = %v, want empty (Fig. 2d)", eff)
	}
	// Without the release (Fig. 2c) the effective lockset keeps A.
	if eff := AppendIntersectExact(nil, storeLS, storeLS); len(eff) != 1 {
		t.Fatalf("same-section effective lockset = %v, want {A}", eff)
	}
}

func TestIntersectLocksIgnoresTimestamps(t *testing.T) {
	a := Set{}.Add(1, 1).Add(2, 2)
	b := Set{}.Add(1, 9).Add(3, 1)
	got := AppendIntersectLocks(nil, a, b)
	if len(got) != 1 || got[0].Lock != 1 {
		t.Fatalf("AppendIntersectLocks = %v, want {L1}", got)
	}
}

func TestDisjointLocks(t *testing.T) {
	a := Set{}.Add(1, 1).Add(2, 1)
	b := Set{}.Add(3, 1).Add(4, 1)
	c := Set{}.Add(2, 5)
	if !DisjointLocks(a, b) {
		t.Fatal("disjoint sets reported overlapping")
	}
	if DisjointLocks(a, c) {
		t.Fatal("overlapping sets reported disjoint")
	}
	if !DisjointLocks(nil, a) || !DisjointLocks(a, nil) {
		t.Fatal("empty set must be disjoint from everything")
	}
}

func TestInternCanonical(t *testing.T) {
	tab := NewTable()
	a := tab.Intern(Set{}.Add(1, 1).Add(2, 2))
	b := tab.Intern(Set{}.Add(2, 2).Add(1, 1)) // same content, built differently
	c := tab.Intern(Set{}.Add(1, 1).Add(2, 3)) // different timestamp
	if a != b {
		t.Fatal("equal sets interned differently")
	}
	if a == c {
		t.Fatal("sets differing in timestamp interned identically")
	}
	if tab.Intern(nil) != 0 {
		t.Fatal("empty set is not ID 0")
	}
}

func randSet(rng *rand.Rand) Set {
	var s Set
	for i := 0; i < rng.Intn(5); i++ {
		s = s.Add(uint64(rng.Intn(6)), uint32(rng.Intn(3)))
	}
	return s
}

// Properties relating the three intersection operations.
func TestIntersectionProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randSet(rng), randSet(rng)
		exact := AppendIntersectExact(nil, a, b)
		locks := AppendIntersectLocks(nil, a, b)
		// Exact ⊆ locks-only.
		for _, e := range exact {
			found := false
			for _, l := range locks {
				if l.Lock == e.Lock {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		// DisjointLocks agrees with the materialized intersection.
		if DisjointLocks(a, b) != (len(locks) == 0) {
			return false
		}
		// Intersections are subsets of both operands (by lock identity).
		for _, l := range locks {
			if !a.Holds(l.Lock) || !b.Holds(l.Lock) {
				return false
			}
		}
		// Self-intersection is identity.
		self := AppendIntersectExact(nil, a, a)
		if len(self) != len(a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: interning is injective on set values.
func TestInternProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable()
		sets := make([]Set, 40)
		ids := make([]ID, 40)
		for i := range sets {
			sets[i] = randSet(rng)
			ids[i] = tab.Intern(sets[i])
		}
		for i := range sets {
			for j := range sets {
				if (ids[i] == ids[j]) != equalSet(sets[i], sets[j], false) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	if got := (Set{}).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
	s := Set{}.Add(1, 2)
	if got := s.String(); got != "{L1@2}" {
		t.Fatalf("String = %q", got)
	}
}

// Regression: Add used to clone the set even when a recursive re-acquisition
// left the timestamp unchanged — the universal case with timestamps disabled,
// where every ts is 0 and each re-lock of a held lock copied the whole set.
func TestAddUnchangedTSReturnsSameSet(t *testing.T) {
	s := Set{}.Add(1, 0).Add(5, 0).Add(9, 0)
	out := s.Add(5, 0)
	if &out[0] != &s[0] {
		t.Fatalf("Add with unchanged TS cloned the set")
	}
	// A changed timestamp must still clone (persistence) and update only the
	// copy.
	out2 := s.Add(5, 7)
	if &out2[0] == &s[0] {
		t.Fatalf("Add with changed TS returned the original backing array")
	}
	if s[1].TS != 0 {
		t.Fatalf("Add mutated receiver: %v", s)
	}
	if out2[1].TS != 7 {
		t.Fatalf("refresh lost: %v", out2)
	}
}

// Signatures must prove disjointness exactly when they claim it: a zero
// intersection of Sig bits implies DisjointLocks, for random set pairs.
func TestSigDisjointSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randSet(rng), randSet(rng)
		if SigOf(a)&SigOf(b) == 0 && !DisjointLocks(a, b) {
			return false
		}
		// Sharing a lock must always share a bit.
		if !DisjointLocks(a, b) && SigOf(a)&SigOf(b) == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Interned signatures match SigOf of the interned set.
func TestTableSig(t *testing.T) {
	tab := NewTable()
	s := Set{}.Add(3, 0).Add(77, 0)
	id := tab.Intern(s)
	if tab.Sig(id) != SigOf(s) {
		t.Fatalf("Sig(%d) = %#x, want %#x", id, tab.Sig(id), SigOf(s))
	}
	if tab.Sig(0) != 0 {
		t.Fatalf("empty set signature = %#x, want 0", tab.Sig(0))
	}
}

// InternLocks(s) is Intern of s with every timestamp zeroed, whichever of
// the two meets a set first, and interning a set the table already holds
// allocates nothing.
func TestInternLocksMatchesStripped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := NewTable()
	for range 2000 {
		s := randSet(rng)
		stripped := make(Set, len(s))
		for i, e := range s {
			stripped[i] = Entry{Lock: e.Lock}
		}
		var got, want ID
		if rng.Intn(2) == 0 {
			got, want = tab.InternLocks(s), tab.Intern(stripped)
		} else {
			want, got = tab.Intern(stripped), tab.InternLocks(s)
		}
		if got != want {
			t.Fatalf("InternLocks(%v) = %d, Intern(%v) = %d", s, got, stripped, want)
		}
		tab.Intern(s)
	}

	s := Set{}.Add(3, 7).Add(9, 2)
	tab.InternLocks(s)
	tab.Intern(s)
	if n := testing.AllocsPerRun(100, func() { tab.InternLocks(s) }); n != 0 {
		t.Errorf("InternLocks hit allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tab.Intern(s) }); n != 0 {
		t.Errorf("Intern hit allocates %v times, want 0", n)
	}
}
