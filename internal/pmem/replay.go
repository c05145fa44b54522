package pmem

import "fmt"

// This file is the device side of every journal consumer: a Pool's mutation
// history can be recorded as a journal of Ops (the instrumented runtime does
// the recording, because it knows the trace-event index and call site each
// operation corresponds to), and a Replayer re-applies that journal to a
// fresh device, materializing the exact volatile and persistent images at
// ANY journal position without re-running the application. Crash
// enumeration (internal/crashinject) then costs one linear replay for an
// entire campaign instead of one execution per crash point, and pmopt reads
// each fence's commits to tell redundant persistence work from real work.

// OpKind enumerates the device-mutating operations a journal records. Loads
// are absent: with background eviction disabled (the worst-case persistency
// model the harness replays under), a load changes neither device view.
type OpKind uint8

// Journal operation kinds.
const (
	OpStore OpKind = iota + 1
	OpNTStore
	OpFlush
	OpFence
)

var opKindNames = map[OpKind]string{
	OpStore: "store", OpNTStore: "ntstore", OpFlush: "flush", OpFence: "fence",
}

// String returns the op kind's mnemonic.
func (k OpKind) String() string {
	if s, ok := opKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// Op is one recorded device-mutating operation.
type Op struct {
	Kind OpKind
	TID  int32
	Addr Addr
	// Size is the store width. A store with nil Data writes Size zero bytes
	// (the untraced allocator-scrub path, pmrt.Ctx.Zero).
	Size uint32
	// Site is the call site that issued the op (a sites.ID of the recording
	// trace's table), or 0 for untraced ops.
	Site int32
	// Data is the store payload (Store/NTStore); nil for Flush/Fence.
	Data []byte
	// Seq is the index of the trace event this op corresponds to, or -1 for
	// operations that emit no trace event. It lets the harness translate
	// trace-coordinate artifacts (e.g. hawkset store windows) into journal
	// positions.
	Seq int
}

// Commit is one snapshot a fence moved into the persistent domain.
type Commit struct {
	// Pos is the journal position of the flush or NT store that took the
	// snapshot.
	Pos int
	// Addr and Size are the snapshot's byte range: a whole line for a
	// flush, the payload for an NT store.
	Addr Addr
	Size uint64
	// Changed reports whether the snapshot changed the persistent bytes it
	// overwrote. A fence commits its batch in issue order, so a snapshot is
	// judged against the entries committed before it.
	Changed bool
}

// Replayer re-applies a recorded op journal to a fresh device under the
// worst-case persistency model (no eADR, no background eviction — exactly
// the semantics the journal was recorded under; the recording runtime's
// eviction, if any, is not replayed, keeping images worst-case
// conservative). Positions are journal indices: position p is the state
// after applying ops[0:p], i.e. a crash "after op p-1".
type Replayer struct {
	pool *Pool
	pos  int
}

// NewReplayer creates a replayer over a fresh zero-filled device of the
// given size.
func NewReplayer(size uint64) *Replayer {
	p := New(size, Options{})
	p.observe = true
	return &Replayer{pool: p}
}

// Pos returns the current journal position (ops applied so far).
func (r *Replayer) Pos() int { return r.pos }

// Pool exposes the replayed device. Its volatile view is the pre-crash
// state at Pos and its persistent view is the crash image at Pos. Callers
// may read both views (Load, ReadPersistent, DiffPersistent, DiffVolatile);
// mutating it desynchronizes the replay.
func (r *Replayer) Pool() *Pool { return r.pool }

// Apply applies one op and returns the snapshots it committed: for a fence,
// its thread's pending batch in commit order (empty when nothing was
// queued); for any other op, none. The journal must be applied in recording
// order. The returned slice is valid until the next Apply.
func (r *Replayer) Apply(op Op) []Commit {
	r.pool.commits = r.pool.commits[:0]
	r.pool.snapPos = r.pos
	switch op.Kind {
	case OpStore, OpNTStore:
		data := op.Data
		if data == nil {
			data = make([]byte, op.Size)
		}
		if op.Kind == OpStore {
			r.pool.Store(op.TID, op.Addr, data, op.Site)
		} else {
			r.pool.NTStore(op.TID, op.Addr, data, op.Site)
		}
	case OpFlush:
		r.pool.Flush(op.TID, op.Addr)
	case OpFence:
		r.pool.Fence(op.TID)
	default:
		panic(fmt.Sprintf("pmem: cannot replay op kind %d", op.Kind))
	}
	r.pos++
	return r.pool.commits
}

// AdvanceTo applies ops[r.Pos():pos], leaving the device at position pos.
// pos must not be behind the current position (replay is forward-only).
func (r *Replayer) AdvanceTo(ops []Op, pos int) {
	if pos < r.pos {
		panic(fmt.Sprintf("pmem: replay cannot rewind from %d to %d", r.pos, pos))
	}
	for _, op := range ops[r.pos:pos] {
		r.Apply(op)
	}
}

// RebootClone returns a new Pool modeling a crash-and-restart of this
// device: both views hold the persistent image, and all cache/pending state
// is gone. The original pool is untouched, so a replay can continue past
// the crash point. dst, when non-nil and of matching size, is reused
// (campaigns reboot hundreds of images): the pages the source holds are
// copied into dst's, and dst's other pages, such as those a recovery probe
// wrote, are zeroed, so a warm clone allocates nothing. Otherwise a fresh
// pool is allocated.
func (p *Pool) RebootClone(dst *Pool) *Pool {
	if dst == nil || dst.Size() != p.Size() || dst.opts != (Options{}) {
		dst = New(p.Size(), Options{})
	}
	dst.persistent.copyFrom(p.persistent)
	dst.volatile.copyFrom(p.persistent)
	if dst.ndirty > 0 {
		clear(dst.dirty)
		dst.ndirty = 0
	}
	dst.dropPending()
	dst.evictQueue = nil
	dst.clock = 0
	return dst
}
