// A brute-force reference for Definition 1, written against the model of
// DESIGN.md §3 and sharing no code with the replayer: no lockset or vector
// clock tables, no dedup records, no cache-line buckets. It keeps every
// dynamic store window and every dynamic load, decides each pair on its own,
// and sums the pairs by site pair. FuzzAnalyzeVsOracle holds Analyze to it.
package hawkset_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
)

// oracleKey names one report. A store-store key holds its two sites in
// ascending order: which window Analyze lists first depends on its record
// order, which is not part of the model.
type oracleKey struct {
	store, load sites.ID
	storeStore  bool
}

type oracleReport struct {
	unpersisted bool
	weight      uint64 // racing dynamic pairs
}

// oracleWitness is one racing store-load pair, in the fields a report uses
// as its example.
type oracleWitness struct {
	key               oracleKey
	addr              uint64
	storeTID, loadTID int32
	endKind           hawkset.EndKind
}

type oracleResult struct {
	reports   map[oracleKey]*oracleReport
	witnesses map[oracleWitness]bool
	// hbPruned counts store-load pairs the happens-before filter drops;
	// hbViaOther counts those among them whose ordering runs through a
	// create or join edge rather than through the loading thread's own
	// program order.
	hbPruned, hbViaOther int
}

// oWindow is one dynamic store and its unpersisted window.
type oWindow struct {
	ev      int // index of the store event
	tid     int32
	addr    uint64
	size    uint32
	site    sites.ID
	locks   map[uint64]int // held locks and the events that acquired them
	end     int            // index of the event that ended the window; -1: none
	endTID  int32
	endKind hawkset.EndKind
	eff     map[uint64]bool // effective lockset, by lock identity
	kept    bool            // not dropped by the IRH
}

type oLoad struct {
	ev    int
	tid   int32
	addr  uint64
	size  uint32
	site  sites.ID
	locks map[uint64]bool // held locks, by identity
}

// oThread is one incarnation of a thread: a create of a TID starts a new one.
type oThread struct {
	step    int            // happens-before node its next event belongs to
	locks   map[uint64]int // lock → index of the acquiring event
	pending []*oWindow     // windows its flushes snapshotted, ended by its next fence
}

// oracle computes the report set of Definition 1 for tr under cfg.
//
// Happens-before is reachability over program order and create/join edges.
// Its nodes are the steps of DESIGN.md §3's lazy clock: the events a thread
// issues between two of its own creates or joins share one clock, so they
// form one node. A create ends the parent's step and starts the child's
// first step after it; a join ends the waiter's step and starts one after
// both it and the joined thread's current step.
func oracle(tr *trace.Trace, cfg hawkset.Config) *oracleResult {
	var (
		events  = slices.Collect(tr.Events())
		anc     [][]bool // anc[n][m], m < n: step m reaches step n
		stepOf  = make([]int, len(events))
		threads = map[int32]*oThread{}
		open    []*oWindow
		windows []*oWindow
		loads   []oLoad
		// IRH publication state, keyed by an access's start address. Under
		// AllocAware, an allocation covering the line of an address's start
		// makes its state stale: the next touch starts it afresh.
		first     = map[uint64]int32{}
		published = map[uint64]bool{}
		stale     = map[uint64]bool{}
		// addrs lists the keys of first, which never loses one: a stale
		// address is deleted and set again by the same touch.
		addrs []uint64
	)
	newStep := func(preds ...int) int {
		n := len(anc)
		row := make([]bool, n)
		for _, p := range preds {
			row[p] = true
			for m, ok := range anc[p] {
				row[m] = row[m] || ok
			}
		}
		anc = append(anc, row)
		return n
	}
	thread := func(tid int32) *oThread {
		th := threads[tid]
		if th == nil {
			th = &oThread{step: newStep(), locks: map[uint64]int{}}
			threads[tid] = th
		}
		return th
	}
	touch := func(tid int32, addr uint64) {
		if stale[addr] {
			delete(first, addr)
			delete(published, addr)
			delete(stale, addr)
		} else if _, ok := first[addr]; !ok {
			addrs = append(addrs, addr)
		}
		if f, ok := first[addr]; !ok {
			first[addr] = tid
		} else if f != tid {
			published[addr] = true
		}
	}
	end := func(w *oWindow, i int, kind hawkset.EndKind, th *oThread, tid int32) {
		w.end, w.endKind, w.endTID = i, kind, tid
		w.eff = effective(w, th.locks, tid, cfg)
		w.kept = !cfg.IRH || kind != hawkset.EndPersist || published[w.addr]
		open = slices.DeleteFunc(open, func(o *oWindow) bool { return o == w })
	}

	for i, e := range events {
		th := thread(e.TID)
		stepOf[i] = th.step
		switch e.Kind {
		case trace.KStore, trace.KNTStore:
			touch(e.TID, e.Addr)
			if cfg.EADR {
				continue
			}
			for _, w := range slices.Clone(open) {
				if overlap(w.addr, w.size, e.Addr, e.Size) {
					end(w, i, hawkset.EndOverwrite, th, e.TID)
				}
			}
			w := &oWindow{ev: i, tid: e.TID, addr: e.Addr, size: e.Size, site: e.Site,
				locks: maps.Clone(th.locks), end: -1, kept: true}
			open = append(open, w)
			windows = append(windows, w)
			if e.Kind == trace.KNTStore {
				th.pending = append(th.pending, w)
			}
		case trace.KLoad:
			touch(e.TID, e.Addr)
			if cfg.IRH && !published[e.Addr] {
				continue
			}
			loads = append(loads, oLoad{ev: i, tid: e.TID, addr: e.Addr, size: e.Size,
				site: e.Site, locks: identities(th.locks)})
		case trace.KFlush:
			line := e.Addr / 64
			for _, w := range open {
				if w.addr/64 <= line && line <= lastByte(w.addr, w.size)/64 {
					th.pending = append(th.pending, w)
				}
			}
		case trace.KFence:
			for _, w := range th.pending {
				if w.end < 0 {
					end(w, i, hawkset.EndPersist, th, e.TID)
				}
			}
			th.pending = nil
		case trace.KLockAcq:
			th.locks[e.Lock] = i
		case trace.KLockRel:
			delete(th.locks, e.Lock)
		case trace.KAlloc:
			if !cfg.AllocAware {
				continue
			}
			for _, a := range addrs {
				if e.Addr/64 <= a/64 && a/64 <= lastByte(e.Addr, e.Size)/64 {
					stale[a] = true
				}
			}
		case trace.KThreadCreate:
			threads[e.Kid] = &oThread{step: newStep(th.step), locks: map[uint64]int{}}
			th.step = newStep(th.step)
		case trace.KThreadJoin:
			child := thread(e.Kid)
			th.step = newStep(th.step, child.step)
		}
	}
	for _, w := range open {
		w.endKind = hawkset.EndNone
		w.eff = map[uint64]bool{}
		if !cfg.EffectiveLockset {
			w.eff = identities(w.locks)
		}
	}

	hb := func(a, b int) bool { // event a happens before (or with) event b
		sa, sb := stepOf[a], stepOf[b]
		return sa == sb || sa < sb && anc[sb][sa]
	}
	res := &oracleResult{reports: map[oracleKey]*oracleReport{}, witnesses: map[oracleWitness]bool{}}
	add := func(k oracleKey, unpersisted bool) {
		r := res.reports[k]
		if r == nil {
			r = &oracleReport{}
			res.reports[k] = r
		}
		r.weight++
		r.unpersisted = r.unpersisted || unpersisted
	}
	for _, w := range windows {
		if !w.kept {
			continue
		}
		for _, l := range loads {
			if w.tid == l.tid || !overlap(w.addr, w.size, l.addr, l.size) {
				continue
			}
			if cfg.HBFilter {
				before := hb(l.ev, w.ev)
				after := w.end >= 0 && hb(w.end, l.ev)
				if before || after {
					res.hbPruned++
					if before || w.endTID != l.tid {
						res.hbViaOther++
					}
					continue
				}
			}
			if shareLock(w.eff, l.locks) {
				continue
			}
			k := oracleKey{store: w.site, load: l.site}
			add(k, w.endKind != hawkset.EndPersist)
			res.witnesses[oracleWitness{k, w.addr, w.tid, l.tid, w.endKind}] = true
		}
	}
	if cfg.StoreStore {
		for i, a := range windows {
			for _, b := range windows[i+1:] {
				if !a.kept || !b.kept || a.tid == b.tid || !overlap(a.addr, a.size, b.addr, b.size) {
					continue
				}
				if cfg.HBFilter && (hb(a.ev, b.ev) || hb(b.ev, a.ev)) {
					continue
				}
				if shareLock(a.eff, b.eff) {
					continue
				}
				k := oracleKey{store: min(a.site, b.site), load: max(a.site, b.site), storeStore: true}
				add(k, a.endKind != hawkset.EndPersist || b.endKind != hawkset.EndPersist)
			}
		}
	}
	return res
}

// effective is a window's effective lockset once the event of thread tid,
// holding locks, ends it. The same thread keeps the locks it has held since
// the store, through the same acquisition when timestamps are on; another
// thread's acquisition times say nothing, so only lock identities count.
func effective(w *oWindow, locks map[uint64]int, tid int32, cfg hawkset.Config) map[uint64]bool {
	if !cfg.EffectiveLockset {
		return identities(w.locks)
	}
	eff := map[uint64]bool{}
	for l, acq := range w.locks {
		if at, held := locks[l]; held && (tid != w.tid || !cfg.Timestamps || at == acq) {
			eff[l] = true
		}
	}
	return eff
}

func identities(m map[uint64]int) map[uint64]bool {
	out := make(map[uint64]bool, len(m))
	for l := range m {
		out[l] = true
	}
	return out
}

func shareLock(a, b map[uint64]bool) bool {
	for l := range a {
		if b[l] {
			return true
		}
	}
	return false
}

// lastByte is the last address an access covers: a size-0 access covers one
// byte, and a range running past the top of the address space stops there.
func lastByte(addr uint64, size uint32) uint64 {
	n := uint64(max(size, 1))
	if addr > ^uint64(0)-(n-1) {
		return ^uint64(0)
	}
	return addr + n - 1
}

func overlap(a uint64, aSize uint32, b uint64, bSize uint32) bool {
	return a <= lastByte(b, bSize) && b <= lastByte(a, aSize)
}

// oracleTrace builds a random program trace whose happens-before order runs
// through thread creates and joins. Main accesses PM before creating its
// workers, while they run and after joining them; each worker is created by
// main or a lower-numbered worker and joined, if at all, by a lower-numbered
// thread that need not be its creator. A thread makes all its creates before
// its first join, and joins only higher-numbered threads, so the program
// cannot deadlock. Threads interleave between operations; an operation (a
// critical section, a store and its persist) runs without interruption.
//
// The operations mix locked and unlocked stores and loads, persists inside
// and outside critical sections, a lock released and reacquired between a
// store and its persist (Fig. 2d), non-temporal stores, overwrites,
// recursive locking, flushes of other threads' lines, loads that their own
// thread then persists, and allocations of accessed lines, some followed by
// an initializing store and its persist. Accesses come from a small pool of
// addresses with sub-line offsets, sometimes ending at the top of the
// address space, and sizes from 0 to 200 bytes, so they overlap within and
// across lines.
func oracleTrace(rng *rand.Rand) *trace.Trace {
	b := trace.NewBuilder()
	n := 3 + rng.Intn(4) // main and 2–5 workers
	nLocks := 1 + rng.Intn(3)
	var addrs []uint64
	for range 4 + rng.Intn(5) {
		addrs = append(addrs, 0x1000+uint64(rng.Intn(6))*64+uint64(rng.Intn(3))*8)
	}
	if rng.Intn(4) == 0 {
		addrs = append(addrs, ^uint64(0)-7-uint64(rng.Intn(3))*8)
	}
	sizes := []uint32{0, 1, 8, 8, 8, 64, 80, 128, 200}

	type op func(tid int32)
	persist := func(tid int32, addr uint64, size uint32, site string) {
		for l := addr / 64; ; l++ {
			b.Flush(tid, l*64, site)
			if l == lastByte(addr, size)/64 {
				break
			}
		}
		b.Fence(tid, site)
	}
	access := func() op {
		addr := addrs[rng.Intn(len(addrs))]
		size := sizes[rng.Intn(len(sizes))]
		lock := uint64(1 + rng.Intn(nLocks))
		site := func(kind string) string { return fmt.Sprintf("%s#%d", kind, rng.Intn(3)) }
		var body op
		switch rng.Intn(11) {
		case 0:
			s := site("store")
			body = func(tid int32) { b.Store(tid, addr, size, s) }
		case 1:
			s, p := site("store"), site("persist")
			body = func(tid int32) { b.Store(tid, addr, size, s); persist(tid, addr, size, p) }
		case 2:
			s, p := site("store"), site("persist")
			return func(tid int32) { // persisted outside the critical section (Fig. 1c)
				b.Lock(tid, lock, "lock").Store(tid, addr, size, s).Unlock(tid, lock, "unlock")
				persist(tid, addr, size, p)
			}
		case 3:
			s, p := site("store"), site("persist")
			return func(tid int32) { // released and reacquired before the persist (Fig. 2d)
				b.Lock(tid, lock, "lock").Store(tid, addr, size, s).Unlock(tid, lock, "unlock")
				b.Lock(tid, lock, "lock")
				persist(tid, addr, size, p)
				b.Unlock(tid, lock, "unlock")
			}
		case 4:
			s, fence := site("ntstore"), rng.Intn(2) == 0
			body = func(tid int32) {
				b.NTStore(tid, addr, size, s)
				if fence {
					b.Fence(tid, "fence")
				}
			}
		case 5:
			fence := rng.Intn(2) == 0
			body = func(tid int32) { // possibly another thread's line
				b.Flush(tid, addr, "flush")
				if fence {
					b.Fence(tid, "fence")
				}
			}
		case 6:
			s1, s2 := site("store"), site("overwrite")
			body = func(tid int32) { b.Store(tid, addr, size, s1).Store(tid, addr, size, s2) }
		case 7:
			s, p := site("load"), site("persist")
			body = func(tid int32) { b.Load(tid, addr, size, s); persist(tid, addr, size, p) }
		case 8:
			s := site("load")
			return func(tid int32) { // recursive locking
				b.Lock(tid, lock, "lock").Lock(tid, lock, "lock").Load(tid, addr, size, s)
				b.Unlock(tid, lock, "unlock").Unlock(tid, lock, "unlock")
			}
		case 9:
			s, p, reinit := site("store"), site("persist"), rng.Intn(2) == 0
			body = func(tid int32) { // the lines are recycled, maybe reinitialized
				b.Alloc(tid, addr/64*64, size, "alloc")
				if reinit {
					b.Store(tid, addr, size, s)
					persist(tid, addr, size, p)
				}
			}
		default:
			s := site("load")
			body = func(tid int32) { b.Load(tid, addr, size, s) }
		}
		if rng.Intn(3) != 0 {
			return body
		}
		return func(tid int32) {
			b.Lock(tid, lock, "lock")
			body(tid)
			b.Unlock(tid, lock, "unlock")
		}
	}

	// Who creates and who joins each worker.
	type action struct {
		run  op
		join int // thread to wait for before run; -1: none
	}
	scripts := make([][]action, n)
	creates := make([][]int, n)
	joins := make([][]int, n)
	created := make([]bool, n)
	created[0] = true
	for c := 1; c < n; c++ {
		p := rng.Intn(c)
		creates[p] = append(creates[p], c)
		if rng.Intn(6) != 0 {
			j := rng.Intn(c)
			joins[j] = append(joins[j], c)
		}
	}
	for tid := range n {
		phase := func(sync []int, mk func(c int) action) []action {
			var out []action
			for range rng.Intn(4) {
				out = append(out, action{run: access(), join: -1})
			}
			for _, c := range sync {
				out = append(out, mk(c))
				for range rng.Intn(3) {
					out = append(out, action{run: access(), join: -1})
				}
			}
			return out
		}
		s := []action{{run: access(), join: -1}}
		s = append(s, phase(creates[tid], func(c int) action {
			return action{run: func(p int32) { b.Create(p, int32(c), "create"); created[c] = true }, join: -1}
		})...)
		s = append(s, phase(joins[tid], func(c int) action {
			return action{run: func(w int32) { b.Join(w, int32(c), "join") }, join: c}
		})...)
		scripts[tid] = append(s, action{run: access(), join: -1})
	}

	// Run the scripts, picking a random runnable thread for each action.
	pc := make([]int, n)
	done := func(t int) bool { return pc[t] == len(scripts[t]) }
	for {
		var runnable []int
		for t := range n {
			if !created[t] || done(t) {
				continue
			}
			if j := scripts[t][pc[t]].join; j >= 0 && !done(j) {
				continue
			}
			runnable = append(runnable, t)
		}
		if len(runnable) == 0 {
			return b.T
		}
		t := runnable[rng.Intn(len(runnable))]
		scripts[t][pc[t]].run(int32(t))
		pc[t]++
	}
}

// oracleConfigs are the configurations the oracle's corpus crosses with its
// traces: the paper's, each pruning feature turned off, store-store checking
// with and without the happens-before filter, the paper's under EADR, and
// the paper's with AllocAware. AllocAware stays last: FuzzAnalyzeVsOracle's
// program-56 seed picks it by that index.
func oracleConfigs() []hawkset.Config {
	off := func(f func(*hawkset.Config)) hawkset.Config {
		c := hawkset.DefaultConfig()
		f(&c)
		return c
	}
	return []hawkset.Config{
		hawkset.DefaultConfig(),
		off(func(c *hawkset.Config) { c.IRH = false }),
		off(func(c *hawkset.Config) { c.EffectiveLockset = false }),
		off(func(c *hawkset.Config) { c.Timestamps = false }),
		off(func(c *hawkset.Config) { c.HBFilter = false }),
		off(func(c *hawkset.Config) { c.StoreStore = true }),
		off(func(c *hawkset.Config) { c.StoreStore, c.HBFilter = true, false }),
		off(func(c *hawkset.Config) { c.EADR = true }),
		off(func(c *hawkset.Config) { c.AllocAware = true }),
	}
}

// checkOracle compares Analyze's reports on tr with the oracle's: the same
// site pairs, and for each the same Unpersisted flag and Weight. A
// store-load report's example fields must name a racing pair the oracle
// found.
func checkOracle(t *testing.T, tr *trace.Trace, cfg hawkset.Config) *oracleResult {
	t.Helper()
	want := oracle(tr, cfg)
	got := map[oracleKey]*oracleReport{}
	var problems []string
	for _, r := range hawkset.Analyze(tr, cfg).Reports {
		k := oracleKey{store: r.StoreSite, load: r.LoadSite, storeStore: r.StoreStore}
		if r.StoreStore {
			k.store, k.load = min(k.store, k.load), max(k.store, k.load)
		} else if !want.witnesses[oracleWitness{k, r.Addr, r.StoreTID, r.LoadTID, r.EndKind}] {
			problems = append(problems, fmt.Sprintf("example of %v is no racing pair", r))
		}
		g := got[k]
		if g == nil {
			g = &oracleReport{}
			got[k] = g
		}
		g.weight += r.Weight
		g.unpersisted = g.unpersisted || r.Unpersisted
	}
	name := func(k oracleKey) string {
		kind := "store-load"
		if k.storeStore {
			kind = "store-store"
		}
		return fmt.Sprintf("%s %s / %s", kind, tr.Sites.Lookup(k.store), tr.Sites.Lookup(k.load))
	}
	for k, w := range want.reports {
		if g := got[k]; g == nil || *g != *w {
			problems = append(problems, fmt.Sprintf("%s: Analyze %+v, oracle %+v", name(k), g, *w))
		}
	}
	for k, g := range got {
		if want.reports[k] == nil {
			problems = append(problems, fmt.Sprintf("%s: Analyze %+v, oracle none", name(k), *g))
		}
	}
	if len(problems) > 0 {
		var ev strings.Builder
		i := 0
		for e := range tr.Events() {
			fmt.Fprintf(&ev, "\n%4d %s  %s", i, e, tr.Sites.Lookup(e.Site))
			i++
		}
		slices.Sort(problems)
		t.Fatalf("config %+v:\n%s\ntrace:%s", cfg, strings.Join(problems, "\n"), ev.String())
	}
	return want
}

// FuzzAnalyzeVsOracle holds Analyze to the oracle on generated programs.
// The input picks the program and the configuration; the seed corpus runs
// 40 programs under every configuration of oracleConfigs, plus program 56
// under AllocAware: an allocation there covers a store's line inside its
// window, and the store's persist still sees the publication the
// allocation made stale, because publication resets only at the next touch.
func FuzzAnalyzeVsOracle(f *testing.F) {
	for seed := range int64(40) {
		for c := range oracleConfigs() {
			f.Add(seed, uint8(c))
		}
	}
	f.Add(int64(56), uint8(len(oracleConfigs())-1))
	f.Fuzz(func(t *testing.T, seed int64, c uint8) {
		cfgs := oracleConfigs()
		checkOracle(t, oracleTrace(rand.New(rand.NewSource(seed))), cfgs[int(c)%len(cfgs)])
	})
}

// FuzzAppsVsOracle holds Analyze to the oracle on the apps' own traces,
// whose node splits, slab reuse and file operations the generated programs
// may not reach. The input picks the app, the operation count (at most
// 200), the seed of the workload and the schedule, the fixed variant, and
// AllocAware, with the allocations recorded for it. The seed corpus runs
// every app at 40 operations, seeds 1–3, buggy and fixed, with AllocAware
// off and on.
func FuzzAppsVsOracle(f *testing.F) {
	all := apps.All()
	for app := range all {
		for seed := int64(1); seed <= 3; seed++ {
			for _, fixed := range []bool{false, true} {
				for _, allocAware := range []bool{false, true} {
					f.Add(uint8(app), uint8(40), seed, fixed, allocAware)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, app, ops uint8, seed int64, fixed, allocAware bool) {
		e := all[int(app)%len(all)]
		n := max(1, min(int(ops), 200))
		rt, err := apps.Run(e, e.Workload(n, seed), apps.RunConfig{Seed: seed, Fixed: fixed, InstrumentAllocs: allocAware})
		if err != nil {
			t.Fatalf("%s, %d ops, seed %d, fixed %v: %v", e.Name, n, seed, fixed, err)
		}
		cfg := hawkset.DefaultConfig()
		cfg.AllocAware = allocAware
		checkOracle(t, rt.Trace, cfg)
	})
}

// TestOracleCorpusOrdersThroughOtherThreads: the corpus must exercise the
// create and join edges, not only windows the loading thread closed itself.
// Under the paper's configuration some pruned pairs must be ordered through
// another thread's clock.
func TestOracleCorpusOrdersThroughOtherThreads(t *testing.T) {
	var pruned, viaOther int
	for seed := range int64(40) {
		res := oracle(oracleTrace(rand.New(rand.NewSource(seed))), hawkset.DefaultConfig())
		pruned += res.hbPruned
		viaOther += res.hbViaOther
	}
	t.Logf("happens-before prunes: %d, through another thread's clock: %d", pruned, viaOther)
	if viaOther == 0 {
		t.Fatal("no pair of the corpus is ordered through a create or join edge")
	}
}
