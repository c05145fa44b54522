package hawkset_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hawkset/internal/apps"
	_ "hawkset/internal/apps/all"
	"hawkset/internal/hawkset"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
)

// TestKernelMatchesPairLoop holds stage ③'s address-ordered join to the
// per-pair loop it replaced (AnalyzeByPairLoop): Reports, every field and
// in order, and Stats must be equal at GOMAXPROCS 1 and 3. The inputs are
// the generated traces under the paper's configuration, StoreStore, each
// ablation and AllocAware; the apps' traces at 1,000 operations under the
// paper's configuration and StoreStore; and hand-built shapes the apps
// reach rarely or never.
func TestKernelMatchesPairLoop(t *testing.T) {
	with := func(f func(*hawkset.Config)) hawkset.Config {
		c := hawkset.DefaultConfig()
		f(&c)
		return c
	}
	storeStore := with(func(c *hawkset.Config) { c.StoreStore = true })
	every := []hawkset.Config{
		hawkset.DefaultConfig(),
		storeStore,
		with(func(c *hawkset.Config) { c.IRH = false }),
		with(func(c *hawkset.Config) { c.EffectiveLockset = false }),
		with(func(c *hawkset.Config) { c.Timestamps = false }),
		with(func(c *hawkset.Config) { c.HBFilter = false }),
		with(func(c *hawkset.Config) { c.AllocAware = true }),
	}
	type input struct {
		name string
		tr   *trace.Trace
		cfgs []hawkset.Config
	}
	var inputs []input
	for seed := range int64(20) {
		inputs = append(inputs,
			input{fmt.Sprint("rand/", seed), hawkset.RandTrace(rand.New(rand.NewSource(seed))), every},
			input{fmt.Sprint("ordered/", seed), hawkset.OrderedRandTrace(rand.New(rand.NewSource(seed))), every})
	}
	inputs = append(inputs, input{"spanning", hawkset.SpanningTrace(), every})
	for name, tr := range kernelShapes() {
		inputs = append(inputs, input{name, tr, every})
	}
	for _, e := range apps.All() {
		for _, seed := range []int64{42, 7} {
			for _, fixed := range []bool{false, true} {
				rt, err := apps.Run(e, e.Workload(1000, seed), apps.RunConfig{Seed: seed, Fixed: fixed})
				if err != nil {
					t.Fatalf("%s seed %d fixed %v: %v", e.Name, seed, fixed, err)
				}
				name := fmt.Sprintf("%s/%d/fixed=%v", e.Name, seed, fixed)
				inputs = append(inputs, input{name, rt.Trace, []hawkset.Config{hawkset.DefaultConfig(), storeStore}})
			}
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var reports int
	for _, in := range inputs {
		for _, cfg := range in.cfgs {
			want := hawkset.AnalyzeByPairLoop(in.tr, cfg)
			reports += len(want.Reports)
			for _, procs := range []int{1, 3} {
				runtime.GOMAXPROCS(procs)
				got := hawkset.Analyze(in.tr, cfg)
				if !reflect.DeepEqual(got.Reports, want.Reports) {
					t.Errorf("%s, config %+v, GOMAXPROCS %d: reports differ from the pair loop:\njoin:      %+v\npair loop: %+v",
						in.name, cfg, procs, got.Reports, want.Reports)
				}
				if got.Stats != want.Stats {
					t.Errorf("%s, config %+v, GOMAXPROCS %d: stats differ from the pair loop:\njoin:      %+v\npair loop: %+v",
						in.name, cfg, procs, got.Stats, want.Stats)
				}
			}
		}
	}
	if reports == 0 {
		t.Fatal("no input produced a report: the differential compared nothing")
	}
}

// kernelShapes are hand-built traces of the shapes where the join departs
// furthest from the pair loop's order.
func kernelShapes() map[string]*trace.Trace {
	const X = 0x1000
	top := ^uint64(0)
	shapes := map[string]*trace.Trace{}
	start := func(threads int32) *trace.Builder {
		b := trace.NewBuilder()
		for tid := int32(1); tid <= threads; tid++ {
			b.Create(0, tid, "create")
		}
		return b
	}
	end := func(b *trace.Builder, threads int32) *trace.Trace {
		for tid := int32(1); tid <= threads; tid++ {
			b.Join(0, tid, "join")
		}
		return b.T
	}

	// Loads in record order from the end of a line to its start, by three
	// threads, some under a lock, alternating between two load sites that
	// render as the same frame: report order and examples follow record
	// order, the join visits them in address order, and the report sort
	// cannot tell the two sites apart. Two stores, the first persisted and
	// locked, the second unpersisted.
	b := start(4)
	ldA := b.T.Sites.Named("ld")
	ldB := b.T.Sites.Append(sites.Frame{File: "ld", Func: "ld"})
	for i := range 8 {
		tid := int32(2 + i%3)
		if i%4 == 1 {
			b.Lock(tid, 1, "lock")
		}
		site := ldA
		if i%2 == 1 {
			site = ldB
		}
		b.T.Append(trace.Event{Kind: trace.KLoad, TID: tid, Addr: X + uint64(56-8*i), Size: 8, Site: site})
		if i%4 == 1 {
			b.Unlock(tid, 1, "unlock")
		}
	}
	b.Lock(1, 1, "lock").Store(1, X, 64, "st").Persist(1, X, 64, "persist").Unlock(1, 1, "unlock")
	b.Store(1, X+8, 48, "st")
	shapes["reverse-order"] = end(b, 4)

	// A persisted and then an unpersisted store on one site pair: the
	// report is created persisted, then downgraded with a new example.
	b = start(3)
	b.Load(2, X+8, 8, "ld").Load(3, X, 8, "ld")
	b.Store(1, X, 16, "st").Persist(1, X, 16, "persist")
	b.Store(1, X, 16, "st")
	b.Load(3, X+8, 8, "ld").Load(2, X, 8, "ld")
	shapes["persisted-then-unpersisted"] = end(b, 3)

	// A 16 KiB load that starts lines before the stores, beside short
	// loads, a load that starts on the store's line and covers the next
	// ones, and a store that starts on an earlier line: the address search
	// must reach the long loads from every store.
	b = start(3)
	b.Load(2, X, 16<<10, "ld.long")
	b.Load(3, X+0x2000+48, 8, "ld.short").Load(3, X+0x2000, 200, "ld.spanning")
	b.Store(1, X+0x2000+56, 8, "st").Store(1, X+0x2000+8, 8, "st")
	b.Store(1, X+0x2000-8, 24, "st.cont")
	b.Load(3, X+0x2000+16, 4, "ld.short")
	shapes["long-load"] = end(b, 3)

	// Zero-size accesses, which cover one byte, beside one-byte ones at
	// the same address and neighbors.
	b = start(3)
	b.Load(2, X+7, 0, "ld.zero").Load(3, X+7, 1, "ld.one").Load(2, X+8, 0, "ld.zero")
	b.Store(1, X, 8, "st").Store(1, X+8, 0, "st.zero").Store(1, X+7, 0, "st.zero")
	shapes["zero-size"] = end(b, 3)

	// The last bytes of the address space, where a last byte must not wrap.
	b = start(3)
	b.Load(2, top-3, 4, "ld").Load(3, top, 0, "ld").Load(2, top-63, 64, "ld.line").Load(3, top-70, 16, "ld.cont")
	b.Store(1, top-7, 8, "st").Store(1, top, 1, "st.last").Store(1, top-66, 8, "st.cont")
	shapes["address-space-top"] = end(b, 3)

	// One thread loads one address at the same site before and after it
	// creates the storing thread: the loads differ only in clock, and only
	// the later one races.
	b = trace.NewBuilder()
	b.Load(0, X, 8, "ld").Create(0, 1, "create").Load(0, X, 8, "ld")
	b.Store(1, X, 8, "st").Join(0, 1, "join")
	shapes["clock-change"] = b.T

	// A TID re-created while its first incarnation is live makes every
	// clock unowned: happens-before falls back to the full walk.
	b = trace.NewBuilder()
	b.Create(0, 1, "create.first").Create(1, 2, "create")
	b.Store(2, X, 8, "st").Load(1, X, 8, "ld.before")
	b.Create(0, 1, "create.again")
	b.Load(1, X, 8, "ld").Store(2, X+8, 8, "st").Load(1, X+4, 8, "ld")
	b.Join(0, 2, "join")
	b.Load(0, X, 16, "ld.after")
	shapes["live-tid-reuse"] = b.T
	return shapes
}
