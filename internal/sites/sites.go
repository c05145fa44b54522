// Package sites captures and interns program call sites. It is the
// reproduction's substitute for HawkSet's call/return-instrumentation
// backtraces (§4): every instrumented PM access records the Go source
// location of the application code that issued it, deduplicated behind a
// small integer ID so that traces stay compact and race reports can be
// deduplicated by (store site, load site) pairs with integer comparisons.
//
// Capture runs on every PM access. The common case is a frame-pointer read
// plus one probe of a Cache, a direct-mapped array owned by the capturing
// goroutine; a miss takes the Table's lock and maps, and the runtime
// unwinder runs only the first time a call site, or a wrapper's call into
// it, is seen (see Cache and DESIGN.md §14).
package sites

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// ID identifies an interned call site. ID 0 is the unknown site.
type ID int32

// Frame is a resolved call site.
type Frame struct {
	File string
	Line int
	Func string
}

// String renders the frame as file:line, trimming directories, the way the
// paper's bug tables report sites (e.g. "btree.h:560").
func (f Frame) String() string {
	if f.File == "" {
		return "<unknown>"
	}
	file := f.File
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	if f.Line == 0 { // synthetic named site
		return file
	}
	return fmt.Sprintf("%s:%d", file, f.Line)
}

// Key returns the frame's module-relative "file.go:line" (see ModuleRel):
// the site key pmopt's static and dynamic sides and pmrt's site elision
// share. The unknown frame's key is "".
func (f Frame) Key() string {
	if f.File == "" {
		return ""
	}
	return fmt.Sprintf("%s:%d", ModuleRel(f.File), f.Line)
}

// ModuleRel trims an absolute source path to its module-relative,
// slash-separated form starting at "internal/" — the spelling the static
// tools (pmlint/pmopt, whose loader reports module-relative paths) use, so
// static findings and dynamic frames join on a common "file:line" key.
// Paths without an internal/ component are returned unchanged.
func ModuleRel(file string) string {
	if i := strings.LastIndex(file, "/internal/"); i >= 0 {
		return file[i+1:]
	}
	return file
}

// Table interns call sites. The zero value is not usable; use NewTable.
// Table is safe for concurrent use: caches on several goroutines may
// capture into one table, and analyses may resolve frames from other
// goroutines while a run captures.
type Table struct {
	mu     sync.Mutex
	byPC   map[uintptr]ID    // runtime.Callers return PC → site
	byKey  map[uintptr]ID    // frame-pointer fast key → site, or viaCallers
	byPair map[[2]uintptr]ID // pinned key and the next return address → site, or viaCallers
	byName map[string]ID
	frames []Frame
	counts Counts
}

// viaCallers pins a fast key or pair whose physical frames are not the
// logical ones runtime.Callers reports: a key pinned this way is looked up
// as a pair with the next return address, and calls with a pinned pair
// always take the runtime.Callers path.
const viaCallers ID = -1

// Counts counts captures by the path they took. They are side-band metrics
// (DESIGN.md §8): no report depends on them.
type Counts struct {
	Fast     uint64 // answered from a frame-pointer key or pair
	Slow     uint64 // took the runtime.Callers path
	Resolved uint64 // of those, first sightings resolved to a new frame
}

// NewTable creates an empty table. Index 0 is reserved for the unknown
// frame.
func NewTable() *Table {
	return &Table{
		byPC:   make(map[uintptr]ID),
		byKey:  make(map[uintptr]ID),
		byPair: make(map[[2]uintptr]ID),
		byName: make(map[string]ID),
		frames: []Frame{{}},
	}
}

// capture interns the call site skip frames above its caller; a Cache
// calls it on a miss. key and next are the frame-pointer return addresses
// at that depth and one frame up (0 means no fast key). A trusted key
// answers from one map lookup, and so does the pair of a pinned key and
// next. Otherwise capture takes runtime.Callers and compares the key with
// the return PC it reports. A key that differs is pinned; its pair is then
// trusted if next equals that PC and pinned if not. A pinned key or pair
// stays pinned, so every call with it unwinds.
//
// capture also reports what the Cache may answer later calls from: ok with
// slotNext 0 for a trusted key, ok with slotNext next for a trusted pair,
// and !ok when every call with this key and next unwinds.
func (t *Table) capture(skip int, key, next uintptr) (id ID, slotNext uintptr, ok bool) {
	pair := [2]uintptr{key, next}
	t.mu.Lock()
	id, ok = t.byKey[key]
	if ok && id == viaCallers {
		slotNext = next
		id, ok = t.byPair[pair]
	}
	if ok && id != viaCallers {
		t.counts.Fast++
		t.mu.Unlock()
		return id, slotNext, true
	}
	t.mu.Unlock()
	var rpc [1]uintptr
	if runtime.Callers(skip+2, rpc[:]) == 0 {
		return 0, 0, false
	}
	pc := rpc[0]
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts.Slow++
	id, ok = t.byPC[pc]
	if !ok {
		id = ID(len(t.frames))
		t.frames = append(t.frames, resolve(pc))
		t.byPC[pc] = id
		t.counts.Resolved++
	}
	switch {
	case key == 0: // no fast key to validate
		return id, 0, false
	case key == pc:
		return id, 0, trust(t.byKey, key, id)
	}
	// The key's frame is not the logical one, typically a wrapper's. When
	// that wrapper is the only frame in between, the logical frame's
	// return PC is next.
	t.byKey[key] = viaCallers
	if next != pc {
		t.byPair[pair] = viaCallers
		return id, 0, false
	}
	return id, next, trust(t.byPair, pair, id)
}

// trust maps k to id and reports true, unless k is pinned: a pinned key
// stays pinned.
func trust[K comparable](m map[K]ID, k K, id ID) bool {
	if m[k] == viaCallers {
		return false
	}
	m[k] = id
	return true
}

// resolve turns a return PC from runtime.Callers into its frame, exactly as
// runtime.Caller does.
func resolve(pc uintptr) Frame {
	fr, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	name := ""
	if fn := runtime.FuncForPC(fr.PC); fn != nil {
		name = fn.Name()
	}
	return Frame{File: fr.File, Line: fr.Line, Func: name}
}

// Counts returns how many of the misses of the caches in front of the
// table took each of its paths so far.
func (t *Table) Counts() Counts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts
}

// Named interns a synthetic site by name (used by toy programs and tests
// that want stable, human-readable site labels instead of Go file:line).
func (t *Table) Named(name string) ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byName[name]; ok {
		return id
	}
	id := ID(len(t.frames))
	t.frames = append(t.frames, Frame{File: name, Line: 0, Func: name})
	t.byName[name] = id
	return id
}

// Append adds a frame unconditionally, returning its positional ID. The
// trace decoder uses it to reconstruct a table with identical IDs: two
// distinct PCs may resolve to the same file:line:func (deduplicating them
// would shift every later ID).
func (t *Table) Append(fr Frame) ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := ID(len(t.frames))
	t.frames = append(t.frames, fr)
	return id
}

// Intern adds a pre-resolved frame (used by tests and tools).
func (t *Table) Intern(fr Frame) ID {
	key := fmt.Sprintf("%s:%d:%s", fr.File, fr.Line, fr.Func)
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byName[key]; ok {
		return id
	}
	id := ID(len(t.frames))
	t.frames = append(t.frames, fr)
	t.byName[key] = id
	return id
}

// Lookup resolves an ID to its frame. Unknown IDs resolve to the zero frame.
func (t *Table) Lookup(id ID) Frame {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || int(id) >= len(t.frames) {
		return Frame{}
	}
	return t.frames[id]
}

// Len returns the number of interned frames (including the reserved zero
// frame).
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.frames)
}

// Frames returns a copy of all frames indexed by ID (trace encoding).
func (t *Table) Frames() []Frame {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Frame, len(t.frames))
	copy(out, t.frames)
	return out
}
