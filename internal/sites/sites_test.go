package sites

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestHereCapturesCaller(t *testing.T) {
	tab := NewTable()
	id := NewCache(tab).Here(0)
	fr := tab.Lookup(id)
	if !strings.HasSuffix(fr.File, "sites_test.go") {
		t.Fatalf("File = %q, want this test file", fr.File)
	}
	if !strings.Contains(fr.Func, "TestHereCapturesCaller") {
		t.Fatalf("Func = %q", fr.Func)
	}
	if !strings.HasPrefix(fr.String(), "sites_test.go:") {
		t.Fatalf("String = %q", fr.String())
	}
}

func TestHereInterned(t *testing.T) {
	c := NewCache(NewTable())
	var a, b ID
	for i := 0; i < 2; i++ {
		id := c.Here(0) // same line both iterations
		if i == 0 {
			a = id
		} else {
			b = id
		}
	}
	if a != b {
		t.Fatalf("same call site interned twice: %d %d", a, b)
	}
}

func helperSite(c *Cache, skip int) ID { return c.Here(skip) }

func TestHereSkip(t *testing.T) {
	tab := NewTable()
	id := helperSite(NewCache(tab), 1) // skip the helper: capture this test
	fr := tab.Lookup(id)
	if !strings.Contains(fr.Func, "TestHereSkip") {
		t.Fatalf("Func = %q, want the test (skip=1)", fr.Func)
	}
}

func TestNamedSites(t *testing.T) {
	tab := NewTable()
	a := tab.Named("t1.store")
	b := tab.Named("t1.store")
	c := tab.Named("t2.load")
	if a != b || a == c {
		t.Fatalf("interning wrong: %d %d %d", a, b, c)
	}
	if got := tab.Lookup(a).String(); got != "t1.store" {
		t.Fatalf("named site renders as %q", got)
	}
}

func TestUnknownID(t *testing.T) {
	tab := NewTable()
	if got := tab.Lookup(0).String(); got != "<unknown>" {
		t.Fatalf("zero ID = %q", got)
	}
	if got := tab.Lookup(999).String(); got != "<unknown>" {
		t.Fatalf("out-of-range ID = %q", got)
	}
}

func TestFrameKey(t *testing.T) {
	for _, c := range []struct {
		fr   Frame
		want string
	}{
		{Frame{File: "/src/hawkset/internal/apps/part/part.go", Line: 316, Func: "f"}, "internal/apps/part/part.go:316"},
		{Frame{File: "/src/main.go", Line: 7}, "/src/main.go:7"},
		{Frame{}, ""},
	} {
		if got := c.fr.Key(); got != c.want {
			t.Errorf("%+v.Key() = %q, want %q", c.fr, got, c.want)
		}
	}
}

func TestInternPreResolved(t *testing.T) {
	tab := NewTable()
	a := tab.Intern(Frame{File: "x.c", Line: 42, Func: "f"})
	b := tab.Intern(Frame{File: "x.c", Line: 42, Func: "f"})
	if a != b {
		t.Fatal("equal frames interned twice")
	}
	if got := tab.Lookup(a).String(); got != "x.c:42" {
		t.Fatalf("frame renders as %q", got)
	}
}

func TestFramesAndLen(t *testing.T) {
	tab := NewTable()
	tab.Named("a")
	tab.Named("b")
	if tab.Len() != 3 { // reserved zero + 2
		t.Fatalf("Len = %d", tab.Len())
	}
	fs := tab.Frames()
	if len(fs) != 3 || fs[1].File != "a" {
		t.Fatalf("Frames = %v", fs)
	}
}

func TestAppendPreservesPositions(t *testing.T) {
	tab := NewTable()
	a := tab.Append(Frame{File: "x.go", Line: 1, Func: "f"})
	b := tab.Append(Frame{File: "x.go", Line: 1, Func: "f"}) // identical frame
	if a == b {
		t.Fatal("Append deduplicated; IDs must be positional")
	}
	if tab.Lookup(b).Line != 1 {
		t.Fatal("appended frame unreadable")
	}
}

// refFrame is the reference capture: runtime.Caller resolved the way Here
// did before it had a fast path. skip counts as in Here.
func refFrame(skip int) Frame {
	pc, file, line, ok := runtime.Caller(skip + 1)
	if !ok {
		return Frame{}
	}
	name := ""
	if fn := runtime.FuncForPC(pc); fn != nil {
		name = fn.Name()
	}
	return Frame{File: file, Line: line, Func: name}
}

// chain has pmrt's shape: an exported method calls an unexported here, both
// never inlined, and here captures two frames up — once through the cache's
// Here and once through the reference, so both see the same physical call.
type chain struct {
	tab   *Table
	cache *Cache
	got   ID
	want  Frame
}

// newChain returns a chain that captures into tab through its own cache.
func newChain(tab *Table) *chain { return &chain{tab: tab, cache: NewCache(tab)} }

//go:noinline
func (c *chain) here() { c.got, c.want = c.cache.Here(2), refFrame(2) }

//go:noinline
func (c *chain) Op() { c.here() }

func (c *chain) check(t *testing.T, wantFunc string) {
	t.Helper()
	if got := c.tab.Lookup(c.got); got != c.want {
		t.Fatalf("Here resolved %+v, runtime.Caller %+v", got, c.want)
	}
	if !strings.Contains(c.want.Func, wantFunc) {
		t.Fatalf("captured %+v, want a frame in %s", c.want, wantFunc)
	}
}

// openCodedDefers is whether the compiler calls a deferwrap directly from
// each exit of the deferring function. The race detector turns that off:
// every deferred call then runs through runtime.deferreturn, a second
// wrapper frame, so its pair stays pinned (race_test.go).
var openCodedDefers = true

// settled runs round three times and fails if a call after the first round
// unwound: every key and pair it captures at must be trusted by then. A
// round with deferred captures settles only with open-coded defers.
func (c *chain) settled(t *testing.T, deferred bool, round func()) {
	t.Helper()
	round()
	first := c.cache.Counts()
	round()
	round()
	if runtime.GOARCH != "amd64" || deferred && !openCodedDefers {
		return
	}
	if n := c.cache.Counts(); n.Slow != first.Slow {
		t.Errorf("counts %+v after the first round, %+v after two more: repeat calls unwound", first, n)
	}
}

func TestHereChainDirect(t *testing.T) {
	c := newChain(NewTable())
	for i := 0; i < 3; i++ {
		c.Op()
		c.check(t, "TestHereChainDirect")
	}
	n := c.cache.Counts()
	if n.Resolved != 1 || n.Fast+n.Slow != 3 {
		t.Fatalf("counts %+v, want 1 resolution over 3 calls", n)
	}
	if runtime.GOARCH == "amd64" && n.Fast != 2 {
		t.Fatalf("counts %+v: repeat calls missed the frame-pointer key", n)
	}
}

func TestHereChainDeferAndMethodValue(t *testing.T) {
	c := newChain(NewTable())
	op := c.Op
	var ids [3]ID
	c.settled(t, true, func() {
		func() { defer c.Op() }()
		c.check(t, "TestHereChainDeferAndMethodValue")
		ids[0] = c.got
		// Both lines run through one method-value wrapper, so they share
		// a fast key that must not answer for either; the pair of it and
		// the return address into each line does.
		op()
		c.check(t, "TestHereChainDeferAndMethodValue")
		ids[1] = c.got
		op()
		c.check(t, "TestHereChainDeferAndMethodValue")
		ids[2] = c.got
	})
	if n := c.cache.Counts(); n.Resolved != 3 {
		t.Fatalf("counts %+v, want the defer and both method-value calls resolved once each", n)
	}
	if ids[0] == ids[1] || ids[1] == ids[2] || ids[0] == ids[2] {
		t.Fatalf("sites %v: the three lines must resolve to three sites", ids)
	}
}

// threeExits defers an Op and returns from one of three statements. Each
// exit calls the one deferwrap, so all three share its fast key, and the
// pair with each exit's return address names that exit.
func threeExits(c *chain, exit int) int {
	defer c.Op()
	switch exit {
	case 0:
		return 0
	case 1:
		return 1
	}
	return 2
}

func TestHereDeferAtEachExit(t *testing.T) {
	c := newChain(NewTable())
	var ids [3]ID
	c.settled(t, true, func() {
		for exit := range ids {
			threeExits(c, exit)
			c.check(t, "threeExits")
			ids[exit] = c.got
		}
	})
	lines := map[int]bool{}
	for _, id := range ids {
		lines[c.tab.Lookup(id).Line] = true
	}
	if len(lines) != 3 {
		t.Fatalf("sites %v on lines %v: want each exit on its own line", ids, lines)
	}
}

// panicking runs a deferred Op while a panic unwinds its frame, so the
// runtime's panic path calls the deferwrap; an earlier defer recovers.
func panicking(c *chain) {
	defer func() { _ = recover() }()
	defer c.Op()
	panic("unwind")
}

func TestHereDeferDuringPanic(t *testing.T) {
	c := newChain(NewTable())
	c.settled(t, true, func() {
		panicking(c)
		if got := c.tab.Lookup(c.got); got != c.want || c.want.File == "" {
			t.Fatalf("Here resolved %+v, runtime.Caller %+v", got, c.want)
		}
	})
}

// valChain's value-receiver Op, called through an interface holding a
// *valChain, runs the compiler's (*valChain).Op wrapper first.
type valChain struct{ c *chain }

//go:noinline
func (v valChain) Op() { v.c.here() }

// twoWrappers defers an interface call of Op and returns from one of two
// statements. Each exit calls the deferwrap, which calls the
// (*valChain).Op wrapper, so the key and the next return address both
// point into wrappers: one pair stands for both exits and must never be
// trusted.
func twoWrappers(i interface{ Op() }, exit int) int {
	defer i.Op()
	if exit == 0 {
		return 0
	}
	return 1
}

func TestHereWrapperChainUnwinds(t *testing.T) {
	c := newChain(NewTable())
	var ids [2]ID
	for round := 0; round < 3; round++ {
		for exit := range ids {
			twoWrappers(&valChain{c}, exit)
			c.check(t, "twoWrappers")
			ids[exit] = c.got
		}
	}
	if ids[0] == ids[1] {
		t.Fatalf("both exits resolved to site %d", ids[0])
	}
	if n := c.cache.Counts(); n.Resolved != 2 || n.Slow != 6 {
		t.Fatalf("counts %+v, want all 6 calls to unwind and 2 resolutions", n)
	}
}

// TestCacheSlotCollision narrows the cache to one slot, so a key and two
// pairs that share their first key keep evicting each other: all three
// stay correct, and a collision falls back to the table's maps without
// unwinding.
func TestCacheSlotCollision(t *testing.T) {
	c := newChain(NewTable())
	c.cache.mask = 0
	op := c.Op
	var ids [3]ID
	c.settled(t, false, func() {
		c.Op()
		c.check(t, "TestCacheSlotCollision")
		ids[0] = c.got
		op()
		c.check(t, "TestCacheSlotCollision")
		ids[1] = c.got
		op()
		c.check(t, "TestCacheSlotCollision")
		ids[2] = c.got
	})
	if n := c.cache.Counts(); ids[0] == ids[1] || ids[1] == ids[2] || n.Resolved != 3 {
		t.Fatalf("sites %v, counts %+v: want three sites resolved once each", ids, n)
	}
	if c.cache.hits != 0 {
		t.Fatalf("%d cache hits: the keys did not collide", c.cache.hits)
	}
}

func TestHereChainClosure(t *testing.T) {
	c := newChain(NewTable())
	op := func() { c.Op() }
	for i := 0; i < 3; i++ {
		op()
		c.check(t, "TestHereChainClosure.func1")
	}
}

// inlinedApp is small enough to be inlined into its caller: the captured
// site is its own line, a logical frame with no physical frame of its own.
func inlinedApp(c *chain) { c.Op() }

func TestHereChainInlinedHelper(t *testing.T) {
	c := newChain(NewTable())
	for i := 0; i < 3; i++ {
		inlinedApp(c)
		c.check(t, "inlinedApp")
	}
}

// TestHereSkipThroughInlinableHelper: helperSite is inlined into this test,
// so Here(0) names a logical frame with no physical frame of its own, and
// Here(1)'s frame-pointer key (this test's return into its caller) differs
// from the logical frame's return PC and must be pinned to the slow path.
func TestHereSkipThroughInlinableHelper(t *testing.T) {
	tab := NewTable()
	c := NewCache(tab)
	fn := runtime.FuncForPC(reflect.ValueOf(helperSite).Pointer())
	file, line := fn.FileLine(fn.Entry())
	inHelper := Frame{File: file, Line: line, Func: fn.Name()}
	for i := 0; i < 3; i++ {
		if got := tab.Lookup(helperSite(c, 0)); got != inHelper {
			t.Fatalf("Here(0) resolved %+v, want %+v", got, inHelper)
		}
		id, want := helperSite(c, 1), refFrame(0)
		if got := tab.Lookup(id); got != want {
			t.Fatalf("Here(1) resolved %+v, runtime.Caller %+v", got, want)
		}
	}
}

// deep recurses with a large frame, then captures: reaching the bottom grows
// (and so moves) the goroutine stack.
//
//go:noinline
func deep(c *chain, n int) int {
	var pad [256]byte
	pad[n%len(pad)] = byte(n)
	if n == 0 {
		c.Op()
		return 0
	}
	return deep(c, n-1) + int(pad[0])
}

func TestHereAcrossStackGrowth(t *testing.T) {
	done := make(chan struct{})
	go func() { // a fresh goroutine starts with a small stack
		defer close(done)
		c := newChain(NewTable())
		for i := 0; i < 3; i++ {
			c.Op()
			if got := c.tab.Lookup(c.got); got != c.want {
				t.Errorf("before growth: Here resolved %+v, runtime.Caller %+v", got, c.want)
			}
			deep(c, 500+i*500)
			if got := c.tab.Lookup(c.got); got != c.want || !strings.Contains(c.want.Func, "deep") {
				t.Errorf("after growth: Here resolved %+v, runtime.Caller %+v", got, c.want)
			}
		}
	}()
	<-done
}

// TestHereSharedTable captures from two goroutines into one table, each
// through its own Cache.
func TestHereSharedTable(t *testing.T) {
	tab := NewTable()
	chains := [2]*chain{newChain(tab), newChain(tab)}
	var wg sync.WaitGroup
	for _, c := range chains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Op()
				if got := tab.Lookup(c.got); got != c.want {
					t.Errorf("Here resolved %+v, runtime.Caller %+v", got, c.want)
					return
				}
				inlinedApp(c)
				if got := tab.Lookup(c.got); got != c.want {
					t.Errorf("Here resolved %+v, runtime.Caller %+v", got, c.want)
					return
				}
			}
		}()
	}
	wg.Wait()
	hits := chains[0].cache.hits + chains[1].cache.hits
	if n := tab.Counts(); n.Resolved != 2 || n.Fast+n.Slow+hits != 800 {
		t.Fatalf("counts %+v and %d cache hits, want 2 resolutions over 800 calls", n, hits)
	}
}

func TestCaptureWithoutFastKey(t *testing.T) {
	tab := NewTable()
	// capture and the reference both skip this closure: they name the line
	// that calls it.
	both := func() (ID, bool, Frame) {
		id, _, ok := tab.capture(1, 0, 0)
		return id, ok, refFrame(1)
	}
	for i := 0; i < 2; i++ {
		id, ok, want := both()
		if ok {
			t.Fatal("capture without a fast key offered a cache slot")
		}
		if got := tab.Lookup(id); got != want || !strings.Contains(want.Func, "TestCaptureWithoutFastKey") {
			t.Fatalf("capture resolved %+v, runtime.Caller %+v", got, want)
		}
	}
	if n := tab.Counts(); n != (Counts{Slow: 2, Resolved: 1}) {
		t.Fatalf("counts %+v, want two slow calls and one resolution", n)
	}
}
