package wipe

import (
	"testing"

	"hawkset/internal/pmrt"
)

func TestPutGetDelete(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1})
	x := New(rt, true).(*Index)
	err := rt.Run(func(c *pmrt.Ctx) {
		x.Setup(c)
		for i := uint64(1); i <= 500; i++ {
			x.Put(c, i, i*2)
		}
		for i := uint64(1); i <= 500; i++ {
			v, ok := x.Get(c, i)
			if !ok || v != i*2 {
				t.Fatalf("Get(%d) = (%d,%v)", i, v, ok)
			}
		}
		x.Put(c, 9, 999)
		if v, _ := x.Get(c, 9); v != 999 {
			t.Fatal("update failed")
		}
		x.Delete(c, 9)
		if _, ok := x.Get(c, 9); ok {
			t.Fatal("deleted key still present")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExpansion: overflowing a segment's buffer doubles it and keeps all
// live entries reachable (tombstones compacted away).
func TestExpansion(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1})
	x := New(rt, true).(*Index)
	err := rt.Run(func(c *pmrt.Ctx) {
		x.Setup(c)
		// Collect many keys of one segment.
		var keys []uint64
		target := model(12345)
		for k := uint64(1); len(keys) < 3*initialCap; k++ {
			if model(k) == target {
				keys = append(keys, k)
			}
		}
		for i, k := range keys {
			x.Put(c, k, uint64(i))
			if i == 2 {
				x.Delete(c, keys[0]) // leave a tombstone pre-expansion
			}
		}
		for i, k := range keys {
			v, ok := x.Get(c, k)
			if i == 0 {
				if ok {
					t.Fatal("tombstoned key resurfaced after expansion")
				}
				continue
			}
			if !ok || v != uint64(i) {
				t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", k, v, ok, i)
			}
		}
		buf := x.lookupSegment(c, target)
		if capGot := c.Load8(buf + offCap); capGot < 2*initialCap {
			t.Fatalf("buffer capacity = %d, expansion did not happen", capGot)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBuggyExpandLosesPointerOnCrash: bug #18 — the buffer data persists but
// the segment pointer swap does not.
func TestBuggyExpandLosesPointerOnCrash(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1})
	x := New(rt, false).(*Index)
	var target uint64
	var volatilePtr uint64
	err := rt.Run(func(c *pmrt.Ctx) {
		x.Setup(c)
		var keys []uint64
		target = model(777)
		for k := uint64(1); len(keys) < initialCap+1; k++ {
			if model(k) == target {
				keys = append(keys, k)
			}
		}
		for i, k := range keys { // the last Put triggers expansion
			x.Put(c, k, uint64(i))
		}
		volatilePtr = x.lookupSegment(c, target)
	})
	if err != nil {
		t.Fatal(err)
	}
	persistedPtr := rt.Pool.ReadPersistent8(x.segs + target*8)
	if persistedPtr == volatilePtr {
		t.Fatal("buggy expand persisted the segment pointer — bug #18 not seeded")
	}
	if persistedPtr == 0 {
		t.Fatal("original segment pointer missing from the crash image")
	}
}
