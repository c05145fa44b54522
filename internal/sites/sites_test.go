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
	id := tab.Here(0)
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
	tab := NewTable()
	var a, b ID
	for i := 0; i < 2; i++ {
		id := tab.Here(0) // same line both iterations
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

func helperSite(tab *Table, skip int) ID { return tab.Here(skip) }

func TestHereSkip(t *testing.T) {
	tab := NewTable()
	id := helperSite(tab, 1) // skip the helper: capture this test
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
	ss := tab.SortedStrings()
	if len(ss) != 2 || ss[0] != "a" || ss[1] != "b" {
		t.Fatalf("SortedStrings = %v", ss)
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

func stackHelper(tab *Table) ID { return tab.HereStack(0, 4) }

func TestHereStackCapturesChain(t *testing.T) {
	tab := NewTable()
	id := stackHelper(tab)
	fr := tab.Lookup(id)
	if !strings.Contains(fr.Func, "stackHelper") || !strings.Contains(fr.Func, "TestHereStackCapturesChain") {
		t.Fatalf("Func chain = %q, want helper<-test", fr.Func)
	}
	if !strings.Contains(fr.Func, "<-") {
		t.Fatalf("chain separator missing: %q", fr.Func)
	}
	if !strings.HasSuffix(fr.File, "sites_test.go") {
		t.Fatalf("leaf file = %q", fr.File)
	}
	// Interned: the same call chain yields the same ID (loop = one line).
	var ids []ID
	for i := 0; i < 2; i++ {
		ids = append(ids, stackHelper(tab))
	}
	if ids[0] != ids[1] {
		t.Fatalf("stack re-interned: %d vs %d", ids[0], ids[1])
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
// never inlined, and here captures two frames up — once through Here and
// once through the reference, so both see the same physical call.
type chain struct {
	tab  *Table
	got  ID
	want Frame
}

//go:noinline
func (c *chain) here() { c.got, c.want = c.tab.Here(2), refFrame(2) }

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

func TestHereChainDirect(t *testing.T) {
	c := &chain{tab: NewTable()}
	for i := 0; i < 3; i++ {
		c.Op()
		c.check(t, "TestHereChainDirect")
	}
	n := c.tab.Counts()
	if n.Resolved != 1 || n.Fast+n.Slow != 3 {
		t.Fatalf("counts %+v, want 1 resolution over 3 calls", n)
	}
	if runtime.GOARCH == "amd64" && n.Fast != 2 {
		t.Fatalf("counts %+v: repeat calls missed the frame-pointer key", n)
	}
}

func TestHereChainDeferAndMethodValue(t *testing.T) {
	c := &chain{tab: NewTable()}
	op := c.Op
	for i := 0; i < 3; i++ {
		func() { defer c.Op() }()
		c.check(t, "TestHereChainDeferAndMethodValue")
		// Both lines run through one method-value wrapper, so they share a
		// fast key that must not answer for either.
		op()
		c.check(t, "TestHereChainDeferAndMethodValue")
		op()
		c.check(t, "TestHereChainDeferAndMethodValue")
	}
	if n := c.tab.Counts(); n.Resolved != 3 {
		t.Fatalf("counts %+v, want the defer and both method-value calls resolved once each", n)
	}
}

func TestHereChainClosure(t *testing.T) {
	c := &chain{tab: NewTable()}
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
	c := &chain{tab: NewTable()}
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
	fn := runtime.FuncForPC(reflect.ValueOf(helperSite).Pointer())
	file, line := fn.FileLine(fn.Entry())
	inHelper := Frame{File: file, Line: line, Func: fn.Name()}
	for i := 0; i < 3; i++ {
		if got := tab.Lookup(helperSite(tab, 0)); got != inHelper {
			t.Fatalf("Here(0) resolved %+v, want %+v", got, inHelper)
		}
		id, want := helperSite(tab, 1), refFrame(0)
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
		c := &chain{tab: NewTable()}
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

func TestHereSharedTable(t *testing.T) {
	tab := NewTable()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &chain{tab: tab}
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
	if n := tab.Counts(); n.Resolved != 2 || n.Fast+n.Slow != 800 {
		t.Fatalf("counts %+v, want 2 resolutions over 800 calls", n)
	}
}

func TestCaptureWithoutFastKey(t *testing.T) {
	tab := NewTable()
	for i := 0; i < 2; i++ {
		id, want := tab.capture(0, 0), refFrame(0)
		if got := tab.Lookup(id); got != want || !strings.Contains(want.Func, "TestCaptureWithoutFastKey") {
			t.Fatalf("capture resolved %+v, runtime.Caller %+v", got, want)
		}
	}
	if n := tab.Counts(); n != (Counts{Slow: 2, Resolved: 1}) {
		t.Fatalf("counts %+v, want two slow calls and one resolution", n)
	}
}
