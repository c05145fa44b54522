package pmasstree

import (
	"testing"

	"hawkset/internal/pmrt"
)

func TestPutGetDelete(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1})
	tr := New(rt, true).(*Tree)
	err := rt.Run(func(c *pmrt.Ctx) {
		tr.Setup(c)
		ref := map[uint64]uint64{}
		for i := uint64(0); i < 600; i++ {
			k := (i * 7919) % 2048
			tr.Put(c, k, i)
			ref[k] = i
		}
		for k, v := range ref {
			got, ok := tr.Get(c, k)
			if !ok || got != v {
				t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", k, got, ok, v)
			}
		}
		// Delete a third of the keys.
		i := 0
		for k := range ref {
			if i%3 == 0 {
				tr.Delete(c, k)
				delete(ref, k)
			}
			i++
		}
		for k, v := range ref {
			if got, ok := tr.Get(c, k); !ok || got != v {
				t.Fatalf("after deletes Get(%d) = (%d,%v), want (%d,true)", k, got, ok, v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLeafChainsStaySorted: inserting ascending and descending runs into one
// slot must keep lookups exact across splits.
func TestLeafChainsStaySorted(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1})
	tr := New(rt, true).(*Tree)
	err := rt.Run(func(c *pmrt.Ctx) {
		tr.Setup(c)
		// Find many keys mapping to one directory slot.
		var keys []uint64
		target := slotOf(12345)
		for k := uint64(1); len(keys) < 4*leafCap; k++ {
			if slotOf(k) == target {
				keys = append(keys, k)
			}
		}
		// Interleave low/high inserts to exercise both split halves.
		for i := 0; i < len(keys)/2; i++ {
			tr.Put(c, keys[i], keys[i])
			j := len(keys) - 1 - i
			tr.Put(c, keys[j], keys[j])
		}
		for _, k := range keys {
			if v, ok := tr.Get(c, k); !ok || v != k {
				t.Fatalf("Get(%d) = (%d,%v)", k, v, ok)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBuggyPutLosesValueOnCrash: with bug #5 seeded, a put's entry is
// visible but absent from the crash image. Entries sharing the leaf
// header's cache line get persisted incidentally by the count flush, so the
// test targets an entry beyond the first line (index ≥ 3).
func TestBuggyPutLosesValueOnCrash(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1})
	tr := New(rt, false).(*Tree)
	var keys []uint64
	err := rt.Run(func(c *pmrt.Ctx) {
		tr.Setup(c)
		// Four ascending keys of one directory slot: the fourth lands at
		// entry index 3, the first slot of the leaf's second cache line.
		target := slotOf(1)
		for k := uint64(1); len(keys) < 4; k++ {
			if slotOf(k) == target {
				keys = append(keys, k)
			}
		}
		for _, k := range keys {
			tr.Put(c, k, k+1000)
		}
		if v, ok := tr.Get(c, keys[3]); !ok || v != keys[3]+1000 {
			t.Fatal("value not visible before crash")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf := rt.Pool.ReadPersistent8(tr.slotAddr(slotOf(keys[0])))
	if leaf == 0 {
		return // even the slot pointer may be unpersisted: value lost either way
	}
	if k := rt.Pool.ReadPersistent8(keyAddr(leaf, 3)); k == keys[3] {
		t.Fatal("buggy put persisted its entry — bug #5 not seeded")
	}
}

// TestFixedPutSurvivesCrash is the control for the previous test.
func TestFixedPutSurvivesCrash(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1})
	tr := New(rt, true).(*Tree)
	err := rt.Run(func(c *pmrt.Ctx) {
		tr.Setup(c)
		tr.Put(c, 77, 1234)
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf := rt.Pool.ReadPersistent8(tr.slotAddr(slotOf(77)))
	if leaf == 0 {
		t.Fatal("fixed put did not persist the slot pointer")
	}
	if k := rt.Pool.ReadPersistent8(keyAddr(leaf, 0)); k != 77 {
		t.Fatalf("fixed put lost its key: %d", k)
	}
	if v := rt.Pool.ReadPersistent8(valAddr(leaf, 0)); v != 1234 {
		t.Fatalf("fixed put lost its value: %d", v)
	}
}

// TestScan: chain scans return sorted in-slot results.
func TestScan(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1})
	tr := New(rt, true).(*Tree)
	err := rt.Run(func(c *pmrt.Ctx) {
		tr.Setup(c)
		var keys []uint64
		target := slotOf(321)
		for k := uint64(1); len(keys) < 30; k++ {
			if slotOf(k) == target {
				keys = append(keys, k)
				tr.Put(c, k, k*3)
			}
		}
		got := tr.Scan(c, keys[5], 10)
		if len(got) != 10 {
			t.Fatalf("scan returned %d, want 10", len(got))
		}
		prev := uint64(0)
		for _, kv := range got {
			if kv[0] < keys[5] || kv[0] <= prev || kv[1] != kv[0]*3 {
				t.Fatalf("bad scan tuple %v (prev %d)", kv, prev)
			}
			prev = kv[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecovery: reboot and re-attach. The fixed variant recovers every
// key; the buggy variant (unpersisted puts) has lost data.
func TestCrashRecovery(t *testing.T) {
	for _, fixed := range []bool{true, false} {
		rt := pmrt.New(pmrt.Config{Seed: 1})
		tr := New(rt, fixed).(*Tree)
		const n = 400
		err := rt.Run(func(c *pmrt.Ctx) {
			tr.Setup(c)
			for i := uint64(1); i <= n; i++ {
				tr.Put(c, i, i+5)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.Pool.Reboot()
		rt2 := pmrt.NewWithPool(pmrt.Config{Seed: 2}, rt.Pool, rt.Heap)
		rec := Attach(rt2, tr.Dir(), fixed)
		missing := 0
		err = rt2.Run(func(c *pmrt.Ctx) {
			for i := uint64(1); i <= n; i++ {
				if v, ok := rec.Get(c, i); !ok || v != i+5 {
					missing++
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if fixed && missing != 0 {
			t.Fatalf("fixed variant lost %d/%d keys across the crash", missing, n)
		}
		if !fixed && missing == 0 {
			t.Fatal("buggy variant lost nothing — bugs #5/#6 not seeded")
		}
	}
}
