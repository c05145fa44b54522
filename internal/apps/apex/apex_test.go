package apex

import (
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/pmrt"
)

func TestPutSearchEraseUpdate(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1})
	x := New(rt, true).(*Index)
	err := rt.Run(func(c *pmrt.Ctx) {
		x.Setup(c)
		for i := uint64(1); i <= 500; i++ {
			x.Put(c, i, i+5)
		}
		misses := 0
		for i := uint64(1); i <= 500; i++ {
			v, ok := x.Search(c, i)
			if ok && v != i+5 {
				t.Fatalf("Search(%d) = %d, want %d", i, v, i+5)
			}
			if !ok {
				misses++ // probe-window overflow sheds inserts; must be rare
			}
		}
		if misses > 25 {
			t.Fatalf("%d/500 keys unreachable; probe window too small", misses)
		}
		x.Update(c, 3, 42)
		if v, ok := x.Search(c, 3); ok && v != 42 {
			t.Fatal("update failed")
		}
		x.Erase(c, 3)
		if _, ok := x.Search(c, 3); ok {
			t.Fatal("erased key still found")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWritesPersistCorrectly: APEX's seeded races are reader-side; every
// write must be fully persisted even in the buggy variant.
func TestWritesPersistCorrectly(t *testing.T) {
	rt := pmrt.New(pmrt.Config{Seed: 1})
	x := New(rt, false).(*Index)
	err := rt.Run(func(c *pmrt.Ctx) {
		x.Setup(c)
		for i := uint64(1); i <= 100; i++ {
			x.Put(c, i, i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Pool.DirtyLines() != 0 {
		t.Fatalf("%d dirty lines after buggy-variant writes; APEX stores must persist (§5.1)", rt.Pool.DirtyLines())
	}
}

// TestFixedSearchTakesLock: the reader-side repair eliminates every report.
func TestFixedSearchTakesLock(t *testing.T) {
	e, err := apps.Lookup("APEX")
	if err != nil {
		t.Fatal(err)
	}
	res, err := apps.Detect(e, 2000, 3, apps.RunConfig{Seed: 3, Fixed: true}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 0 {
		t.Fatalf("locked searches still race: %v", res.Reports)
	}
}

// TestBuggyReportsArePersistedStores: APEX's reports carry correctly
// persisted store windows (Unpersisted=false), the distinguishing feature of
// races #19/#20.
func TestBuggyReportsArePersistedStores(t *testing.T) {
	e, err := apps.Lookup("APEX")
	if err != nil {
		t.Fatal(err)
	}
	res, err := apps.Detect(e, 2000, 3, apps.RunConfig{Seed: 3}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) == 0 {
		t.Fatal("no reports from the buggy variant")
	}
	for _, r := range res.Reports {
		if r.Unpersisted {
			t.Fatalf("APEX report with unpersisted window: %s", r.String())
		}
	}
}
