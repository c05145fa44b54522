package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLeqBasics(t *testing.T) {
	cases := []struct {
		a, b VC
		want bool
	}{
		{VC{}, VC{}, true},
		{VC{1}, VC{1}, true},
		{VC{1}, VC{2}, true},
		{VC{2}, VC{1}, false},
		{VC{1, 0}, VC{1}, true}, // trailing zeros are insignificant
		{VC{1, 1}, VC{1, 0}, false},
		{VC{3, 0, 0}, VC{3, 1, 0}, true},
		{VC{5, 0, 0}, VC{3, 1, 0}, false},
	}
	for _, c := range cases {
		if got := Leq(c.a, c.b); got != c.want {
			t.Errorf("Leq(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestFigure3 reproduces the paper's Figure 3 clock relationships: the
// parent's store before creating T2/T3 is ordered with their loads, while
// accesses of T2 and T3 are mutually concurrent, and the persist clock keeps
// the window racy after a later thread creation.
func TestFigure3(t *testing.T) {
	store1 := VC{1, 0, 0}   // T1's first store
	t2load := VC{3, 1, 0}   // T2 after creation at (3,0,0)
	store3 := VC{4, 0, 0}   // T1 stores X again
	t3load := VC{5, 0, 1}   // T3 created at (5,0,0)
	persist3 := VC{6, 0, 0} // T1 persists X after creating T3

	concurrent := func(a, b VC) bool { return !Leq(a, b) && !Leq(b, a) }
	if !Leq(store1, t2load) {
		t.Error("Store1 must happen-before T2's load")
	}
	if !Leq(store1, t3load) {
		t.Error("Store1 must happen-before T3's load")
	}
	if !concurrent(t2load, t3load) {
		t.Error("T2 and T3 accesses must be concurrent")
	}
	if !Leq(store3, t3load) {
		t.Error("Store3 alone is ordered before T3's creation")
	}
	if !concurrent(persist3, t3load) {
		t.Error("Persist3 must be concurrent with T3's load (the race window)")
	}
}

func TestJoin(t *testing.T) {
	a := VC{1, 5, 0}
	b := VC{3, 2, 7}
	j := a.Clone().Join(b)
	want := VC{3, 5, 7}
	for i := range want {
		if j.Get(i) != want[i] {
			t.Fatalf("Join = %v, want %v", j, want)
		}
	}
}

func TestBumpGrows(t *testing.T) {
	v := VC{}.Bump(3)
	if len(v) != 4 || v[3] != 1 {
		t.Fatalf("Bump(3) = %v", v)
	}
}

func TestInternCanonical(t *testing.T) {
	tab := NewTable()
	a := tab.Intern(VC{1, 2, 3})
	b := tab.Intern(VC{1, 2, 3})
	c := tab.Intern(VC{1, 2, 3, 0}) // trailing zero: same clock
	d := tab.Intern(VC{1, 2, 4})
	if a != b || a != c {
		t.Fatalf("equal clocks interned differently: %d %d %d", a, b, c)
	}
	if a == d {
		t.Fatal("distinct clocks interned identically")
	}
	if tab.Intern(nil) != 0 {
		t.Fatal("empty clock is not ID 0")
	}
}

func randVC(rng *rand.Rand) VC {
	v := make(VC, rng.Intn(5))
	for i := range v {
		v[i] = uint32(rng.Intn(4))
	}
	return v
}

// Properties of the happens-before partial order.
func TestPartialOrderProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randVC(rng), randVC(rng), randVC(rng)
		// Reflexivity.
		if !Leq(a, a) {
			return false
		}
		// Antisymmetry: Leq both ways means equal.
		if Leq(a, b) && Leq(b, a) && !equalVC(a, b) {
			return false
		}
		// Transitivity.
		if Leq(a, b) && Leq(b, c) && !Leq(a, c) {
			return false
		}
		// Join is an upper bound.
		j := a.Clone().Join(b)
		return Leq(a, j) && Leq(b, j)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: interning is injective on clock values.
func TestInternProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable()
		clocks := make([]VC, 50)
		ids := make([]ID, 50)
		for i := range clocks {
			clocks[i] = randVC(rng)
			ids[i] = tab.Intern(clocks[i])
		}
		for i := range clocks {
			for j := range clocks {
				if (ids[i] == ids[j]) != equalVC(clocks[i], clocks[j]) {
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
	if got := (VC{3, 0, 1}).String(); got != "(3,0,1)" {
		t.Fatalf("String = %q", got)
	}
}

// Epoch bookkeeping: ownership is recorded at InternOwned, attaches lazily
// to a value first interned unowned, and the first owner wins on conflict.
func TestEpochOwnership(t *testing.T) {
	tab := NewTable()
	epoch := func(id ID) (int32, uint32, bool) {
		return tab.owners[id], tab.ticks[id], tab.owners[id] != NoOwner
	}
	a := tab.InternOwned(VC{2, 1}, 0)
	if tid, tick, ok := epoch(a); !ok || tid != 0 || tick != 2 {
		t.Fatalf("Epoch = (%d,%d,%v), want (0,2,true)", tid, tick, ok)
	}
	// Unowned intern: no epoch.
	b := tab.Intern(VC{1, 3})
	if _, _, ok := epoch(b); ok {
		t.Fatalf("unowned clock has an epoch")
	}
	// Ownership attaches on a later owned intern of the same value.
	if id := tab.InternOwned(VC{1, 3}, 1); id != b {
		t.Fatalf("re-intern changed ID: %d != %d", id, b)
	}
	if tid, tick, ok := epoch(b); !ok || tid != 1 || tick != 3 {
		t.Fatalf("attached Epoch = (%d,%d,%v), want (1,3,true)", tid, tick, ok)
	}
	// First owner wins: both owners are valid epochs for the same value, so
	// the recorded one must simply stay stable.
	if id := tab.InternOwned(VC{2, 1}, 1); id != a {
		t.Fatalf("re-intern changed ID")
	}
	if tid, _, _ := epoch(a); tid != 0 {
		t.Fatalf("owner overwritten: tid = %d, want 0", tid)
	}
}

// LeqID must agree with the full-vector Leq on clocks that satisfy the
// ownership precondition (each owned clock is its owner's event clock), and
// fall back to the full compare for unowned clocks.
func TestLeqIDMatchesLeq(t *testing.T) {
	tab := NewTable()
	// A tiny create/join history for threads 0 and 1:
	//   t0: (1)      — initial
	//   t0: (2)      — bump before creating t1
	//   t1: (2,1)    — child initial clock
	//   t0: (3)      — next event clock
	//   t1: (2,2)    — t1's second event
	ids := []ID{
		tab.InternOwned(VC{1}, 0),
		tab.InternOwned(VC{2}, 0),
		tab.InternOwned(VC{2, 1}, 1),
		tab.InternOwned(VC{3}, 0),
		tab.InternOwned(VC{2, 2}, 1),
	}
	for _, a := range ids {
		for _, b := range ids {
			want := Leq(tab.Get(a), tab.Get(b))
			if got := tab.LeqID(a, b); got != want {
				t.Errorf("LeqID(%v,%v) = %v, want %v", tab.Get(a), tab.Get(b), got, want)
			}
		}
	}
	// Unowned × unowned falls back to the exact walk.
	u1 := tab.Intern(VC{5, 1})
	u2 := tab.Intern(VC{1, 5})
	if tab.LeqID(u1, u2) || tab.LeqID(u2, u1) {
		t.Fatalf("unowned concurrent clocks compared as ordered")
	}
	if !tab.LeqID(u1, u1) {
		t.Fatalf("LeqID not reflexive")
	}
}

// Disown turns every compare, for clocks interned before and after it, into
// the full walk: a pair the epoch compare orders but Leq does not (the
// pattern a reused thread index produces) is concurrent again.
func TestDisown(t *testing.T) {
	tab := NewTable()
	// Owned by thread 1 at tick 1, yet not below (2,2): component 0 is ahead.
	a := tab.InternOwned(VC{3, 1}, 1)
	b := tab.InternOwned(VC{2, 2}, 1)
	if !tab.LeqID(a, b) {
		t.Fatal("the epoch compare should order the pair before Disown")
	}
	tab.Disown()
	if tab.LeqID(a, b) {
		t.Fatal("LeqID still uses the epoch after Disown")
	}
	c := tab.InternOwned(VC{4, 1}, 1)
	if tab.LeqID(c, b) {
		t.Fatal("a clock interned after Disown was given an owner")
	}
	if !tab.LeqID(b, b) || !tab.LeqID(tab.Intern(VC{1, 1}), b) {
		t.Fatal("full compare lost an ordered pair")
	}
}
