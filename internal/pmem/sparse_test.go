package pmem

import (
	"runtime"
	"testing"
)

// The tests in this file pin the page-sparse layout: a device that went
// back to full-size arrays, or allocated pages on reads, would still pass
// every behavioral test.

// TestNewAllocatesTablesOnly: a 64 MiB pool costs its page tables and
// dirty-line bitset, under 1 MiB, with TrackWriters too.
func TestNewAllocatesTablesOnly(t *testing.T) {
	for _, opts := range []Options{{}, {TrackWriters: true}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := New(64<<20, opts)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("New(64 MiB, %+v) allocated %d bytes, want under 1 MiB", opts, got)
		}
		runtime.KeepAlive(p)
	}
}

// TestWarmRebootCloneAllocs: once a scratch pool has held a clone, cloning
// into it again allocates nothing, and neither does a recovery probe that
// writes, flushes and fences a page the source does not hold.
func TestWarmRebootCloneAllocs(t *testing.T) {
	src := New(64<<20, Options{})
	for _, a := range []Addr{0, 5 * pageSize, 40 << 20} {
		src.Store8(1, a, 0x1122334455667788, 0)
		src.FlushRange(1, a, 8)
		src.Fence(1)
	}
	src.Store8(1, 7*pageSize, 9, 0) // volatile only
	var scratch *Pool
	probe := func() {
		scratch = src.RebootClone(scratch)
		scratch.Store8(2, 9*pageSize, 3, 0)
		scratch.Flush(2, 9*pageSize)
		scratch.Fence(2)
	}
	probe()
	if a := testing.AllocsPerRun(20, probe); a != 0 {
		t.Errorf("warm RebootClone and probe allocate %v times per run, want 0", a)
	}
	scratch = src.RebootClone(scratch)
	if got := scratch.Load8(5 * pageSize); got != 0x1122334455667788 {
		t.Errorf("clone reads %#x at a persisted word", got)
	}
	if got := scratch.Load8(9 * pageSize); got != 0 {
		t.Errorf("clone reads %d where only the previous probe wrote, want 0", got)
	}
	if got := scratch.Load8(7 * pageSize); got != 0 {
		t.Errorf("clone reads the source's unpersisted store: %d", got)
	}
	if vol, per := PagesHeld(src); vol != 4 || per != 3 {
		t.Errorf("source holds %d volatile and %d persistent pages, want 4 and 3", vol, per)
	}
}

// TestUnwrittenPageAccessAllocs: loads, flush snapshots, fences that commit
// them, DirtyRead and Persisted on pages no store reached allocate nothing
// and leave the pages nil.
func TestUnwrittenPageAccessAllocs(t *testing.T) {
	p := New(64<<20, Options{TrackWriters: true})
	p.Store8(1, 0, 1, 0) // one written page, so the batch buffers exist
	p.Flush(1, 0)
	p.Fence(1)
	buf := make([]byte, 100)
	if a := testing.AllocsPerRun(100, func() {
		p.Load(3*pageSize-50, buf) // across two unwritten pages
		_ = p.Load8(20 << 20)
		p.Flush(2, 20<<20)
		p.FlushRange(2, 30<<20, 3*LineSize)
		p.Fence(2)
		_, _, _ = p.DirtyRead(3, 20<<20, 8)
		_ = p.Persisted(30<<20, 1000)
		_ = p.ReadPersistent8(40 << 20)
	}); a != 0 {
		t.Errorf("accesses to unwritten pages allocate %v times per run, want 0", a)
	}
	if vol, per := PagesHeld(p); vol != 1 || per != 1 {
		t.Errorf("pool holds %d volatile and %d persistent pages, want 1 and 1", vol, per)
	}
	for i, w := range p.writers {
		if w != nil && i != 0 {
			t.Errorf("writer metadata allocated for unwritten page %d", i)
		}
	}
}
