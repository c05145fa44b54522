package pmem

import (
	"bytes"
	"slices"
	"testing"
)

// journalingPool drives a live Pool while recording the equivalent op
// journal, the way the instrumented runtime does.
type journalingPool struct {
	p   *Pool
	ops []Op
}

func (j *journalingPool) store(tid int32, addr Addr, data []byte) {
	j.p.Store(tid, addr, data, 0)
	cp := make([]byte, len(data))
	copy(cp, data)
	j.ops = append(j.ops, Op{Kind: OpStore, TID: tid, Addr: addr, Size: uint32(len(data)), Data: cp, Seq: -1})
}

func (j *journalingPool) ntstore(tid int32, addr Addr, data []byte) {
	j.p.NTStore(tid, addr, data, 0)
	cp := make([]byte, len(data))
	copy(cp, data)
	j.ops = append(j.ops, Op{Kind: OpNTStore, TID: tid, Addr: addr, Size: uint32(len(data)), Data: cp, Seq: -1})
}

func (j *journalingPool) flush(tid int32, addr Addr) {
	j.p.Flush(tid, addr)
	j.ops = append(j.ops, Op{Kind: OpFlush, TID: tid, Addr: addr, Seq: -1})
}

func (j *journalingPool) fence(tid int32) {
	j.p.Fence(tid)
	j.ops = append(j.ops, Op{Kind: OpFence, TID: tid, Seq: -1})
}

// TestReplayerReproducesDevice records a multi-thread journal with partial
// flushes, interleaved fences, and a zero-scrub, then checks that replaying
// every prefix reproduces a device whose final views match the original.
func TestReplayerReproducesDevice(t *testing.T) {
	const size = 4 * LineSize
	j := &journalingPool{p: New(size, Options{})}

	j.store(1, 0, []byte{1, 2, 3, 4})
	j.store(2, LineSize, []byte{9, 9})
	j.flush(1, 0)
	j.store(1, 4, []byte{5, 6}) // after t1's flush snapshot: not covered
	j.fence(1)
	j.ntstore(2, 2*LineSize, []byte{7})
	j.fence(2) // persists t2's ntstore, NOT t2's line-1 store
	// Untraced scrub: nil Data, Size bytes of zero.
	j.p.Store(1, 3*LineSize, make([]byte, 16), 0)
	j.ops = append(j.ops, Op{Kind: OpStore, TID: 1, Addr: 3 * LineSize, Size: 16, Seq: -1})
	j.store(1, 3*LineSize, []byte{0xff})

	r := NewReplayer(size)
	for _, op := range j.ops {
		r.Apply(op)
	}
	if r.Pos() != len(j.ops) {
		t.Fatalf("Pos = %d, want %d", r.Pos(), len(j.ops))
	}
	got, want := r.Pool(), j.p
	if _, differ := got.DiffVolatile(want, 0, size); differ {
		t.Errorf("replayed volatile view differs from original")
	}
	if _, differ := got.DiffPersistent(want, 0, size); differ {
		t.Errorf("replayed persistent view differs from original")
	}
	// Spot-check the persistency semantics survived replay: t1's post-flush
	// store must not be persistent, t2's fenced ntstore must be.
	if got.Persisted(4, 2) {
		t.Errorf("bytes stored after flush snapshot persisted across replay")
	}
	if !got.Persisted(2*LineSize, 1) {
		t.Errorf("fenced ntstore not persistent after replay")
	}
}

func TestReplayerAdvanceToAndRewindPanic(t *testing.T) {
	j := &journalingPool{p: New(2*LineSize, Options{})}
	j.store(1, 0, []byte{1})
	j.flush(1, 0)
	j.fence(1)
	j.store(1, 1, []byte{2})

	r := NewReplayer(2 * LineSize)
	r.AdvanceTo(j.ops, 3)
	if !r.Pool().Persisted(0, 1) {
		t.Fatalf("position 3 should have byte 0 persisted")
	}
	if r.Pool().Load8(0)&0xff00 != 0 {
		t.Fatalf("byte 1 stored before position 4")
	}
	r.AdvanceTo(j.ops, len(j.ops))
	if r.Pool().Persisted(1, 1) {
		t.Fatalf("unflushed store at byte 1 must not be persistent")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("rewinding AdvanceTo should panic")
		}
	}()
	r.AdvanceTo(j.ops, 1)
}

func TestRebootClone(t *testing.T) {
	p := New(2*LineSize, Options{})
	p.Store(1, 0, []byte{1, 2, 3}, 0)
	p.Flush(1, 0)
	p.Fence(1)
	p.Store(1, LineSize, []byte{9}, 0) // unpersisted

	c := p.RebootClone(nil)
	if c.Load8(0)&0xffffff != 0x030201 {
		t.Errorf("persisted data missing in clone")
	}
	if c.Load8(LineSize)&0xff != 0 {
		t.Errorf("unpersisted store visible after reboot clone")
	}
	if c.DirtyLines() != 0 {
		t.Errorf("clone has %d dirty lines, want 0", c.DirtyLines())
	}
	// Original must be untouched.
	if p.Load8(LineSize)&0xff != 9 {
		t.Errorf("RebootClone mutated the source pool")
	}

	// Reuse path: the same destination absorbs a different image.
	p.Flush(1, LineSize)
	p.Fence(1)
	c2 := p.RebootClone(c)
	if c2 != c {
		t.Errorf("matching-size destination was not reused")
	}
	if c2.Load8(LineSize)&0xff != 9 {
		t.Errorf("reused clone missing newly persisted byte")
	}
}

// TestReplayerCommits pins the commit report: each fence reports its
// thread's snapshots in issue order, at the journal positions of the flushes
// and NT stores that took them, with Changed judged against the entries
// committed before it.
func TestReplayerCommits(t *testing.T) {
	ops := []Op{
		{Kind: OpStore, TID: 1, Addr: 0, Size: 2, Data: []byte{1, 2}},
		{Kind: OpFlush, TID: 1, Addr: 0},
		{Kind: OpStore, TID: 1, Addr: 1, Size: 1, Data: []byte{3}}, // after the snapshot
		{Kind: OpNTStore, TID: 1, Addr: LineSize, Size: 2, Data: []byte{4, 5}},
		{Kind: OpFlush, TID: 2, Addr: 2 * LineSize}, // thread 1's fences leave it queued
		{Kind: OpFence, TID: 1},
		{Kind: OpFence, TID: 1}, // nothing queued
		{Kind: OpFlush, TID: 1, Addr: 0},
		{Kind: OpFlush, TID: 1, Addr: 8}, // the same line again, in the same batch
		{Kind: OpFence, TID: 1},
		{Kind: OpFence, TID: 2},
	}
	want := map[int][]Commit{
		5:  {{Pos: 1, Addr: 0, Size: LineSize, Changed: true}, {Pos: 3, Addr: LineSize, Size: 2, Changed: true}},
		9:  {{Pos: 7, Addr: 0, Size: LineSize, Changed: true}, {Pos: 8, Addr: 0, Size: LineSize, Changed: false}},
		10: {{Pos: 4, Addr: 2 * LineSize, Size: LineSize, Changed: false}},
	}
	r := NewReplayer(4 * LineSize)
	for i, op := range ops {
		got := r.Apply(op)
		if !slices.Equal(got, want[i]) {
			t.Errorf("op %d (%s) committed %+v, want %+v", i, op.Kind, got, want[i])
		}
		if i == 5 {
			// The first fence committed line 0's snapshot, not the store
			// issued after it.
			vol, per := make([]byte, 2), make([]byte, 2)
			r.Pool().Load(0, vol)
			r.Pool().ReadPersistent(0, per)
			if !bytes.Equal(per, []byte{1, 2}) || !bytes.Equal(vol, []byte{1, 3}) {
				t.Errorf("after the first fence: volatile %v persistent %v, want [1 3] and [1 2]", vol, per)
			}
		}
	}
}

// TestFenceLivePathAllocs pins a live pool's allocations per store, flush
// and fence at none: the flush's snapshot goes into its thread's buffer,
// which the fence empties for reuse. Commit observation, which only
// Replayer pools do, adds none either.
func TestFenceLivePathAllocs(t *testing.T) {
	p := New(4*LineSize, Options{})
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if a := testing.AllocsPerRun(100, func() {
		p.Store(1, 8, data, 0)
		p.Flush(1, 8)
		p.NTStore(1, 100, data, 0)
		p.Fence(1)
	}); a != 0 {
		t.Errorf("Store+Flush+NTStore+Fence allocates %v times per run, want 0", a)
	}
}
