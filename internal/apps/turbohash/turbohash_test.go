package turbohash

import (
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/pmrt"
)

func newTable(t *testing.T, fixed bool) (*pmrt.Runtime, *Table) {
	t.Helper()
	rt := pmrt.New(pmrt.Config{Seed: 1})
	return rt, New(rt, fixed).(*Table)
}

func TestPutGetDelete(t *testing.T) {
	rt, tab := newTable(t, true)
	err := rt.Run(func(c *pmrt.Ctx) {
		tab.Setup(c)
		for i := uint64(1); i <= 500; i++ {
			tab.Put(c, i, i*3)
		}
		for i := uint64(1); i <= 500; i++ {
			v, ok := tab.Get(c, i)
			if !ok || v != i*3 {
				t.Fatalf("Get(%d) = (%d,%v)", i, v, ok)
			}
		}
		tab.Put(c, 7, 99) // update in place
		if v, _ := tab.Get(c, 7); v != 99 {
			t.Fatalf("update failed: %d", v)
		}
		tab.Delete(c, 7)
		if _, ok := tab.Get(c, 7); ok {
			t.Fatal("deleted key still present")
		}
		if _, ok := tab.Get(c, 99999); ok {
			t.Fatal("absent key found")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBucketFillCrossesLine drives many colliding keys into one bucket so
// cells land in the second cache line, then checks the buggy variant loses
// exactly those cells in a crash while the fixed variant keeps everything.
func TestBucketFillCrossesLine(t *testing.T) {
	for _, fixed := range []bool{false, true} {
		rt, tab := newTable(t, fixed)
		var keys []uint64
		err := rt.Run(func(c *pmrt.Ctx) {
			tab.Setup(c)
			// Find 6 keys that hash to the same bucket.
			target := hash(1) % nBuckets
			for k := uint64(1); len(keys) < 6; k++ {
				if hash(k)%nBuckets == target {
					keys = append(keys, k)
				}
			}
			for _, k := range keys {
				tab.Put(c, k, k+100)
			}
			for _, k := range keys {
				if v, ok := tab.Get(c, k); !ok || v != k+100 {
					t.Fatalf("fixed=%v: Get(%d) = (%d,%v)", fixed, k, v, ok)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// Inspect the crash image: cells 3+ of the bucket live in line 2.
		b := tab.bucketAddr(hash(keys[0]) % nBuckets)
		lost := 0
		for i := 3; i < 6; i++ {
			if rt.Pool.ReadPersistent8(cellAddr(b, i)) == 0 {
				lost++
			}
		}
		if fixed && lost != 0 {
			t.Fatalf("fixed variant lost %d second-line cells", lost)
		}
		if !fixed && lost == 0 {
			t.Fatal("buggy variant persisted second-line cells — bug #3 not seeded")
		}
	}
}

// TestBugOnlyManifestsWhenBucketsFill reproduces §5.1's observation that
// race #3 appears only in larger workloads: a small workload leaves every
// bucket within its first cache line.
func TestBugOnlyManifestsWhenBucketsFill(t *testing.T) {
	e, err := apps.Lookup("TurboHash")
	if err != nil {
		t.Fatal(err)
	}
	small, err := apps.Detect(e, 500, 11, apps.RunConfig{Seed: 11}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range apps.FoundBugs(e, small) {
		if id == 3 {
			t.Skip("small workload happened to fill a bucket; statistical trigger")
		}
	}
	big, err := apps.Detect(e, 20000, 11, apps.RunConfig{Seed: 11}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range apps.FoundBugs(e, big) {
		if id == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("bug #3 not found even at 20k operations")
	}
}

// TestDeleteInChainedProbes: deletes across probe chains and re-inserts
// reuse freed cells.
func TestDeleteAndReuseCells(t *testing.T) {
	rt, tab := newTable(t, true)
	err := rt.Run(func(c *pmrt.Ctx) {
		tab.Setup(c)
		// Fill one bucket completely (7 cells) plus overflow into the next.
		target := hash(1) % nBuckets
		var keys []uint64
		for k := uint64(1); len(keys) < cellsPerBucket+2; k++ {
			if hash(k)%nBuckets == target {
				keys = append(keys, k)
			}
		}
		for _, k := range keys {
			tab.Put(c, k, k)
		}
		for _, k := range keys {
			if _, ok := tab.Get(c, k); !ok {
				t.Fatalf("overflowed key %d unreachable", k)
			}
		}
		// Delete one in-bucket key; its cell must be reused by a new key.
		tab.Delete(c, keys[2])
		if _, ok := tab.Get(c, keys[2]); ok {
			t.Fatal("deleted key still present")
		}
		var fresh uint64
		for k := keys[len(keys)-1] + 1; ; k++ {
			if hash(k)%nBuckets == target {
				fresh = k
				break
			}
		}
		tab.Put(c, fresh, 123)
		if v, ok := tab.Get(c, fresh); !ok || v != 123 {
			t.Fatalf("reused-cell key = (%d,%v)", v, ok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
