package memcachedpm

import (
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/pmrt"
	"hawkset/internal/ycsb"
)

func newCache(t *testing.T, fixed bool) (*pmrt.Runtime, *Cache) {
	t.Helper()
	rt := pmrt.New(pmrt.Config{Seed: 1})
	return rt, New(rt, fixed).(*Cache)
}

func TestCommands(t *testing.T) {
	rt, cc := newCache(t, true)
	err := rt.Run(func(c *pmrt.Ctx) {
		cc.Setup(c)
		cc.Set(c, 1, 10)
		if v, ok := cc.Get(c, 1); !ok || v != 10 {
			t.Fatalf("Get = (%d,%v)", v, ok)
		}
		cc.Add(c, 1, 99) // present: no-op
		if v, _ := cc.Get(c, 1); v != 10 {
			t.Fatal("Add overwrote existing item")
		}
		cc.Add(c, 2, 20)
		if v, ok := cc.Get(c, 2); !ok || v != 20 {
			t.Fatalf("Add failed: (%d,%v)", v, ok)
		}
		cc.Replace(c, 2, 21)
		if v, _ := cc.Get(c, 2); v != 21 {
			t.Fatal("Replace failed")
		}
		cc.Replace(c, 3, 30) // absent: no-op
		if _, ok := cc.Get(c, 3); ok {
			t.Fatal("Replace created an item")
		}
		cc.Delta(c, 1, 1)
		if v, _ := cc.Get(c, 1); v != 11 {
			t.Fatal("incr failed")
		}
		if !cc.CAS(c, 1, 11, 50) {
			t.Fatal("CAS on matching value failed")
		}
		if cc.CAS(c, 1, 11, 60) {
			t.Fatal("CAS on stale value succeeded")
		}
		cc.Concat(c, 1, 5) // append: value becomes 55
		if v, _ := cc.Get(c, 1); v != 55 {
			t.Fatalf("Concat = %d, want 55", v)
		}
		cc.Delete(c, 1)
		if _, ok := cc.Get(c, 1); ok {
			t.Fatal("deleted key still present")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSlabReuse: delete recycles item memory; the next allocation reuses it.
func TestSlabReuse(t *testing.T) {
	rt, cc := newCache(t, true)
	err := rt.Run(func(c *pmrt.Ctx) {
		cc.Setup(c)
		cc.Set(c, 1, 10)
		bucket, _ := cc.bucketAddr(1)
		it := cc.walkChainLocked(c, bucket, 1)
		cc.Delete(c, 1)
		it2 := cc.slabs.pop(c)
		if it2 != it {
			t.Fatalf("slab allocator did not reuse freed item: %#x vs %#x", it2, it)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadRuns: the full ten-command mix executes without deadlock.
func TestWorkloadRuns(t *testing.T) {
	rt, cc := newCache(t, false)
	w := ycsb.Generate(ycsb.MemcachedSpec(2000), 3)
	err := rt.Run(func(c *pmrt.Ctx) {
		cc.Setup(c)
		for _, op := range w.Load {
			cc.Apply(c, ycsb.Op{Kind: ycsb.OpSet, Key: op.Key, Value: op.Value})
		}
		var ths []*pmrt.Thread
		for _, ops := range w.Threads {
			ops := ops
			ths = append(ths, c.Spawn(func(wc *pmrt.Ctx) {
				for _, op := range ops {
					cc.Apply(wc, op)
				}
			}))
		}
		for _, th := range ths {
			c.Join(th)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Trace.Len() == 0 {
		t.Fatal("no events recorded")
	}
}

// TestBuggyLinkLosesChainOnCrash: bug #12 — the hash-chain pointer is
// unpersisted, so a crash orphans the rest of the chain.
func TestBuggyLinkLosesChainOnCrash(t *testing.T) {
	rt, cc := newCache(t, false)
	var first, second uint64
	err := rt.Run(func(c *pmrt.Ctx) {
		cc.Setup(c)
		// Two keys in the same bucket chain.
		k1 := uint64(1)
		var k2 uint64
		for k := uint64(2); ; k++ {
			if hash(k)%nBuckets == hash(k1)%nBuckets {
				k2 = k
				break
			}
		}
		cc.Set(c, k1, 10)
		cc.Set(c, k2, 20)
		bucket, _ := cc.bucketAddr(k1)
		second = c.Load8(bucket) // head: most recently linked
		first = c.Load8(second + offHNext)
		if first == 0 {
			t.Fatal("chain not built")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Pool.ReadPersistent8(second+offHNext) == first {
		t.Fatal("buggy linkItem persisted the chain pointer — bug #12 not seeded")
	}
}

// TestAllocAwareIRHPrunesReuseFPs quantifies the §7 extension the paper
// discusses but does not build: with the slab allocator instrumented
// (pmrt InstrumentAllocs) and the analysis consuming the events
// (hawkset.Config.AllocAware), the IRH recognizes recycled items as
// private-again and prunes the reuse false positives that otherwise
// survive (Table 4's memcached row).
func TestAllocAwareIRHPrunesReuseFPs(t *testing.T) {
	e, err := apps.Lookup("Memcached-pmem")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := apps.Detect(e, 4000, 42, apps.RunConfig{Seed: 42}, hawkset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	aware := hawkset.DefaultConfig()
	aware.AllocAware = true
	extended, err := apps.Detect(e, 4000, 42,
		apps.RunConfig{Seed: 42, InstrumentAllocs: true}, aware)
	if err != nil {
		t.Fatal(err)
	}
	pf := apps.Breakdown(e, plain)[apps.FalsePositive]
	ef := apps.Breakdown(e, extended)[apps.FalsePositive]
	if pf == 0 {
		t.Fatal("baseline run has no reuse false positives to prune")
	}
	if ef >= pf {
		t.Fatalf("alloc-aware IRH did not reduce false positives: %d -> %d", pf, ef)
	}
	// The extension must not cost any malign detection.
	if got, want := len(apps.FoundBugs(e, extended)), len(apps.FoundBugs(e, plain)); got < want {
		t.Fatalf("alloc-aware IRH lost bugs: %d -> %d", want, got)
	}
}
