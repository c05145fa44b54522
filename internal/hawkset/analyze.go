package hawkset

import (
	"runtime"
	"sort"
	"sync"

	"hawkset/internal/lockset"
	"hawkset/internal/pmem"
	"hawkset/internal/sites"
	"hawkset/internal/vclock"
)

// analyze is stage ③: the PM-Aware Lockset Analysis of Algorithm 1. Every
// store record is paired with every load record to an overlapping address
// range from a different thread; pairs ordered by inter-thread
// happens-before are pruned; the remaining pairs race iff the store's
// effective lockset and the load's lockset share no lock.
//
// The implementation applies the optimizations of §4: accesses are grouped
// by cache line, records are deduplicated shapes with counts (built during
// replay), lockset-disjointness and vector-clock comparisons are memoized by
// interned ID pairs, and intersections short-circuit on empty or equal
// locksets.
//
// The cache-line buckets are independent work units, so the pairing is
// sharded across GOMAXPROCS goroutines: the sorted bucket list is
// partitioned into contiguous ranges, each worker runs with private memo
// tables, a private report map and private counters, and the per-shard
// results are merged in shard order. The merge reproduces the sequential
// pair-processing order exactly, so the output is byte-identical to a
// single-shard run for any GOMAXPROCS.
func analyze(res *Result, cfg Config) {
	// Buckets come from a block arena (most traces have thousands of
	// single-record lines; one allocation per bucket was measurable), and the
	// map is presized from the record counts.
	buckets := make(map[uint64]*storeLoadBucket, (len(res.Stores)+len(res.Loads))/4+1)
	var bkArena []storeLoadBucket
	get := func(line uint64) *storeLoadBucket {
		if b, ok := buckets[line]; ok {
			return b
		}
		if len(bkArena) == 0 {
			bkArena = make([]storeLoadBucket, 64)
		}
		b := &bkArena[0]
		bkArena = bkArena[1:]
		buckets[line] = b
		return b
	}
	for i := range res.Stores {
		st := &res.Stores[i]
		linesOf(st.Addr, st.Size, func(line uint64) {
			b := get(line)
			b.stores = append(b.stores, st)
		})
	}
	for i := range res.Loads {
		ld := &res.Loads[i]
		linesOf(ld.Addr, ld.Size, func(line uint64) {
			b := get(line)
			b.loads = append(b.loads, ld)
		})
	}

	// Iterate buckets in address order so report example fields (address,
	// thread pair, end kind) are deterministic for a given trace.
	lineKeys := make([]uint64, 0, len(buckets))
	for line := range buckets {
		lineKeys = append(lineKeys, line)
	}
	sort.Slice(lineKeys, func(i, j int) bool { return lineKeys[i] < lineKeys[j] })

	cfg.Metrics.Gauge("hawkset.analyze.buckets").Set(int64(len(lineKeys)))
	shards := partitionLines(buckets, lineKeys, min(runtime.GOMAXPROCS(0), len(lineKeys)), cfg.StoreStore)
	cfg.Metrics.Gauge("hawkset.analyze.shards").Set(int64(len(shards)))
	outs := make([]*shardResult, len(shards))
	if len(shards) == 1 {
		// The sequential path (GOMAXPROCS=1, or a trace too small to split).
		stop := cfg.Metrics.Stage("hawkset.stage.analyze_shard")
		outs[0] = analyzeShard(res, cfg, buckets, shards[0])
		stop()
	} else {
		var wg sync.WaitGroup
		for i := range shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				stop := cfg.Metrics.Stage("hawkset.stage.analyze_shard")
				outs[i] = analyzeShard(res, cfg, buckets, shards[i])
				stop()
			}(i)
		}
		wg.Wait()
	}
	stopMerge := cfg.Metrics.Stage("hawkset.stage.merge")
	mergeShards(res, outs)
	stopMerge()
}

// partitionLines splits the sorted bucket list into at most workers
// contiguous ranges of roughly equal pairing cost (Σ stores×loads per
// bucket, plus the store-store pairs when those are enabled). Contiguity
// keeps the merge a simple in-order concatenation; cost weighting keeps a
// few dense buckets from serializing the whole analysis.
func partitionLines(buckets map[uint64]*storeLoadBucket, lineKeys []uint64, workers int, storeStore bool) [][]uint64 {
	if workers <= 1 || len(lineKeys) <= 1 {
		return [][]uint64{lineKeys}
	}
	var total uint64
	costs := make([]uint64, len(lineKeys))
	for i, line := range lineKeys {
		b := buckets[line]
		c := uint64(len(b.stores))*uint64(len(b.loads)) + 1
		if storeStore {
			// n stores pair as n(n-1)/2, not n²/2: the n/2 overcharge per
			// bucket made thousands of single-store buckets (0 real pairs,
			// charged ½ each) look as expensive as genuine pairing work and
			// skewed the shard boundaries toward them.
			n := uint64(len(b.stores))
			c += n * (n - 1) / 2
		}
		costs[i] = c
		total += c
	}
	target := total/uint64(workers) + 1
	parts := make([][]uint64, 0, workers)
	start := 0
	var acc uint64
	for i := range lineKeys {
		acc += costs[i]
		if acc >= target && len(parts) < workers-1 {
			parts = append(parts, lineKeys[start:i+1])
			start = i + 1
			acc = 0
		}
	}
	if start < len(lineKeys) {
		parts = append(parts, lineKeys[start:])
	}
	return parts
}

// reportKey identifies one deduplicated report. Store-load and store-store
// pairs are distinct reports even when their sites coincide: a call site
// that both loads and stores (e.g. ctx.Store(dst, ctx.Load(src)) on one
// line) must not fold a write-write pair into a store-load report.
type reportKey struct {
	store, load sites.ID
	storeStore  bool
}

// shardResult is one worker's private output: its report map, the keys in
// first-appearance order (store-load and store-store tracked separately,
// because the sequential reference runs all store-load buckets before any
// store-store pairing), and its share of the pair counters.
type shardResult struct {
	reports map[reportKey]*Report
	orderSL []reportKey
	orderSS []reportKey
	stats   pairStats
}

// pairStats is the per-shard slice of the Stats pair counters.
type pairStats struct {
	checked, hbFiltered, lockFiltered uint64
}

// analyzeShard runs the pairing loops of Algorithm 1 over one contiguous
// range of cache-line buckets. It touches only shard-private state plus the
// read-only interning tables, so shards run concurrently without locks.
func analyzeShard(res *Result, cfg Config, buckets map[uint64]*storeLoadBucket, lines []uint64) *shardResult {
	out := &shardResult{reports: make(map[reportKey]*Report)}
	memoHint := 0
	for _, line := range lines {
		b := buckets[line]
		memoHint += len(b.stores) + len(b.loads)
	}
	cmp := newComparer(res.Locksets, res.VClocks, memoHint)
	// ldScratch caches each load's last byte and spans-lines bit per bucket,
	// computed once instead of once per store×load pair; the slice is reused
	// across the shard's buckets.
	var ldScratch []ldMeta
	for _, line := range lines {
		b := buckets[line]
		if cap(ldScratch) < len(b.loads) {
			ldScratch = make([]ldMeta, len(b.loads))
		}
		lds := ldScratch[:len(b.loads)]
		for i, ld := range b.loads {
			lds[i] = ldMeta{last: lastAddrOf(ld.Addr, ld.Size), spans: spansLines(ld.Addr, ld.Size)}
		}
		for _, st := range b.stores {
			stLast := lastAddrOf(st.Addr, st.Size)
			stSpans := spansLines(st.Addr, st.Size)
			for i, ld := range b.loads {
				// A record spanning several lines appears in several
				// buckets. Process the pair only in the first bucket the two
				// records share: that counts it exactly once for any
				// sharding of the bucket list, without the cross-bucket
				// dedup map the sequential code used to carry (buckets are
				// walked in ascending line order, so "first common line"
				// and "first encounter" coincide).
				if (stSpans || lds[i].spans) && firstCommonLine(st.Addr, ld.Addr) != line {
					continue
				}

				out.stats.checked++
				if st.TID == ld.TID { // Algorithm 1 line 16
					continue
				}
				// Inclusive-last interval test, equivalent to overlaps()
				// with the hoisted last-byte addresses. (Algorithm 1 line 15)
				if st.Addr > lds[i].last || ld.Addr > stLast {
					continue
				}
				if cfg.HBFilter && !cmp.mayRace(st, ld) { // line 17
					out.stats.hbFiltered++
					continue
				}
				if !cmp.disjoint(st.Eff, ld.LS) { // line 18
					out.stats.lockFiltered++
					continue
				}
				key := reportKey{store: st.Site, load: ld.Site}
				rep := out.reports[key]
				if rep == nil {
					rep = &Report{
						StoreSite:  st.Site,
						LoadSite:   ld.Site,
						StoreFrame: res.Sites.Lookup(st.Site),
						LoadFrame:  res.Sites.Lookup(ld.Site),
						Addr:       st.Addr,
						StoreTID:   st.TID,
						LoadTID:    ld.TID,
						EndKind:    st.EndKind,
					}
					out.reports[key] = rep
					out.orderSL = append(out.orderSL, key)
				}
				rep.Pairs++
				rep.Weight += st.Count * ld.Count
				if st.EndKind != EndPersist {
					rep.Unpersisted = true
					rep.EndKind = st.EndKind
					// Keep the example fields describing one real pair: a
					// report downgraded to a non-persist end kind must point
					// at the access pair that exhibits it, not at the first
					// (possibly persisted) pair's location.
					rep.Addr = st.Addr
					rep.StoreTID = st.TID
					rep.LoadTID = ld.TID
				}
			}
		}
	}
	if cfg.StoreStore {
		analyzeStoreStoreShard(res, cfg, buckets, lines, cmp, out)
	}
	return out
}

// analyzeStoreStoreShard pairs store windows with each other — the
// write-write checking of classic lockset analysis that HawkSet deliberately
// omits (§3.1.1). Two windows race if they can overlap in time (neither
// window end happens-before the other's start) and their effective locksets
// are disjoint.
func analyzeStoreStoreShard(res *Result, cfg Config, buckets map[uint64]*storeLoadBucket, lines []uint64, cmp *comparer, out *shardResult) {
	for _, line := range lines {
		b := buckets[line]
		for i, st := range b.stores {
			for _, st2 := range b.stores[i+1:] {
				if st.TID == st2.TID || !overlaps(st.Addr, st.Size, st2.Addr, st2.Size) {
					continue
				}
				if (spansLines(st.Addr, st.Size) || spansLines(st2.Addr, st2.Size)) &&
					firstCommonLine(st.Addr, st2.Addr) != line {
					continue
				}
				// Write-write racing is judged at the store instructions
				// themselves (the classic HB data-race check): an overwrite
				// ends the earlier window exactly at the later store, so
				// window-overlap reasoning would vacuously order every
				// overwriting pair.
				if cfg.HBFilter && (cmp.vc.LeqID(st.Start, st2.Start) || cmp.vc.LeqID(st2.Start, st.Start)) {
					continue
				}
				if !cmp.disjoint(st.Eff, st2.Eff) {
					continue
				}
				key := reportKey{store: st.Site, load: st2.Site, storeStore: true}
				rep := out.reports[key]
				if rep == nil {
					rep = &Report{
						StoreSite:  st.Site,
						LoadSite:   st2.Site,
						StoreFrame: res.Sites.Lookup(st.Site),
						LoadFrame:  res.Sites.Lookup(st2.Site),
						Addr:       st.Addr,
						StoreTID:   st.TID,
						LoadTID:    st2.TID,
						EndKind:    st.EndKind,
						StoreStore: true,
					}
					out.reports[key] = rep
					out.orderSS = append(out.orderSS, key)
				}
				rep.Pairs++
				rep.Weight += st.Count * st2.Count
				if st.EndKind != EndPersist || st2.EndKind != EndPersist {
					rep.Unpersisted = true
				}
			}
		}
	}
}

// mergeShards folds the per-shard reports and counters into res, in shard
// order. Because shards cover contiguous ascending bucket ranges, walking
// shard 0's keys, then shard 1's, … visits reports in exactly the
// first-appearance order of the sequential path, and applying a later
// shard's aggregate is equivalent to replaying its pairs after the earlier
// shard's — so the merged result is identical to the single-shard output.
func mergeShards(res *Result, outs []*shardResult) {
	for _, o := range outs {
		res.Stats.PairsChecked += o.stats.checked
		res.Stats.PairsHBFiltered += o.stats.hbFiltered
		res.Stats.PairsLockFiltered += o.stats.lockFiltered
	}

	reports := make(map[reportKey]*Report)
	var order []reportKey
	merge := func(keys []reportKey, src map[reportKey]*Report) {
		for _, k := range keys {
			s := src[k]
			dst, ok := reports[k]
			if !ok {
				cp := *s
				reports[k] = &cp
				order = append(order, k)
				continue
			}
			dst.Pairs += s.Pairs
			dst.Weight += s.Weight
			switch {
			case k.storeStore:
				// Store-store reports keep the first contributing pair as
				// the example; only the unpersisted flag accumulates.
				dst.Unpersisted = dst.Unpersisted || s.Unpersisted
			case s.Unpersisted:
				// The later shard saw a non-persist pair: sequentially it
				// would have downgraded the report last, so its example
				// wins.
				dst.Unpersisted = true
				dst.EndKind = s.EndKind
				dst.Addr = s.Addr
				dst.StoreTID = s.StoreTID
				dst.LoadTID = s.LoadTID
			}
		}
	}
	// All store-load reports first, then store-store — matching the
	// sequential path, which finishes the store-load buckets before running
	// the store-store pairing.
	for _, o := range outs {
		merge(o.orderSL, o.reports)
	}
	for _, o := range outs {
		merge(o.orderSS, o.reports)
	}

	res.Reports = make([]Report, 0, len(order))
	for _, k := range order {
		res.Reports = append(res.Reports, *reports[k])
	}
}

// storeLoadBucket groups the records of one cache line.
type storeLoadBucket struct {
	stores []*StoreData
	loads  []*LoadData
}

// firstCommonLine returns the lowest cache line covered by both access
// ranges starting at aAddr and bAddr — the one bucket in which a
// multi-line pair is processed.
func firstCommonLine(aAddr, bAddr uint64) uint64 {
	la, lb := pmem.LineOf(aAddr), pmem.LineOf(bAddr)
	if lb > la {
		return lb
	}
	return la
}

func spansLines(addr uint64, size uint32) bool {
	if size == 0 {
		return false
	}
	return pmem.LineOf(addr) != pmem.LineOf(lastAddrOf(addr, size))
}

// ldMeta is a load record's hoisted per-bucket pairing metadata.
type ldMeta struct {
	last  uint64
	spans bool
}

// comparer memoizes lockset comparisons. Each analysis shard owns one: the
// memo map is written during pairing, while the underlying interning tables
// are read-only by then.
//
// Happens-before queries go straight to the clock table's LeqID: one
// component read for the owned event clocks every record carries. disjoint
// first intersects the precomputed lock signatures (zero proves
// disjointness) and walks small sets directly; only large inconclusive
// pairs reach the memo.
type comparer struct {
	ls       *lockset.Table
	vc       *vclock.Table
	disjMemo map[[2]lockset.ID]bool
}

// newComparer builds a shard comparer. memoHint presizes the memo map (the
// shard's record count is the natural bound: a shard cannot memoize more
// distinct pairs than pairs it checks, and record counts cap those).
func newComparer(ls *lockset.Table, vc *vclock.Table, memoHint int) *comparer {
	if memoHint > 1<<12 {
		memoHint = 1 << 12
	}
	return &comparer{
		ls:       ls,
		vc:       vc,
		disjMemo: make(map[[2]lockset.ID]bool, memoHint),
	}
}

// disjoint reports whether the two interned locksets share no lock
// identity. Empty sets are disjoint from everything; equal non-empty IDs
// are never disjoint (integer short-circuit, §4).
func (c *comparer) disjoint(a, b lockset.ID) bool {
	if a == 0 || b == 0 {
		return true
	}
	if a == b {
		return false
	}
	if c.ls.Sig(a)&c.ls.Sig(b) == 0 {
		// No shared signature bit ⇒ no shared lock (exact negative).
		return true
	}
	sa, sb := c.ls.Get(a), c.ls.Get(b)
	if len(sa)+len(sb) <= 8 {
		// Small sets: the merge walk is cheaper than two memo probes.
		return lockset.DisjointLocks(sa, sb)
	}
	key := [2]lockset.ID{a, b}
	if v, ok := c.disjMemo[key]; ok {
		return v
	}
	v := lockset.DisjointLocks(sa, sb)
	c.disjMemo[key] = v
	c.disjMemo[[2]lockset.ID{b, a}] = v
	return v
}

// mayRace applies the inter-thread happens-before filter to a store window
// and a load (§3.1.2). The load can fall inside the store's unpersisted
// window unless it happens-before the store instruction or the window's
// persist happens-before the load. Using the window end clock is what lets
// the analysis catch Fig. 3's Store₃/Persist₃ case; checking the window
// start as well additionally prunes loads that provably precede the store.
func (c *comparer) mayRace(st *StoreData, ld *LoadData) bool {
	if c.vc.LeqID(ld.VC, st.Start) {
		return false // load happens-before the store: it cannot read it
	}
	if st.End != NoVC && c.vc.LeqID(st.End, ld.VC) {
		return false // persisted (or overwritten) before the load could run
	}
	return true
}
