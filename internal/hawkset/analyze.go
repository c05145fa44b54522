package hawkset

import (
	"runtime"
	"slices"
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
// replay), and locksets and clocks are compared by interned ID, with
// intersections short-circuiting on empty or equal locksets and on disjoint
// lock signatures. The grouping is a flat bucketIndex of the lines a load
// covers. Pairing a bucket copies its loads into packed columns and resolves
// each store's clocks and lockset signature once, so a pair costs integer
// compares, the vclock epoch compare in each happens-before direction, and
// one array read to find its report.
//
// The buckets are independent work units, so the pairing is sharded across
// GOMAXPROCS goroutines: the bucket list is partitioned into contiguous
// ranges, each worker runs with a private report map, report cache and
// counters, and the per-shard results are merged in shard order. The merge
// reproduces the sequential pair-processing order exactly, so the output is
// byte-identical to a single-shard run for any GOMAXPROCS.
func analyze(res *Result, cfg Config) {
	bx := indexBuckets(res, cfg.StoreStore)
	cfg.Metrics.Gauge("hawkset.analyze.buckets").Set(int64(len(bx.lines)))
	shards := partitionLines(bx, min(runtime.GOMAXPROCS(0), len(bx.lines)), cfg.StoreStore)
	cfg.Metrics.Gauge("hawkset.analyze.shards").Set(int64(len(shards)))
	outs := make([]*shardResult, len(shards))
	if len(shards) == 1 {
		// The sequential path (GOMAXPROCS=1, or a trace too small to split).
		stop := cfg.Metrics.Stage("hawkset.stage.analyze_shard")
		outs[0] = analyzeShard(res, cfg, bx, shards[0])
		stop()
	} else {
		var wg sync.WaitGroup
		for i := range shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				stop := cfg.Metrics.Stage("hawkset.stage.analyze_shard")
				outs[i] = analyzeShard(res, cfg, bx, shards[i])
				stop()
			}(i)
		}
		wg.Wait()
	}
	stopMerge := cfg.Metrics.Stage("hawkset.stage.merge")
	mergeShards(res, outs)
	stopMerge()
}

// bucketIndex groups the records by cache line as flat index ranges. Bucket
// b covers line lines[b], in ascending line order; its store records are
// stores[storeOff[b]:storeOff[b+1]] and its load records
// loads[loadOff[b]:loadOff[b+1]], both in record order.
type bucketIndex struct {
	lines             []uint64
	storeOff, loadOff []int
	stores, loads     []int32
}

// indexBuckets builds the bucket index. A line becomes a bucket only where a
// load covers it, because a store pairs with nothing elsewhere (under
// StoreStore, a line a store covers is one too). The distinct lines are
// collected through a map and sorted. A record's buckets are then
// consecutive, from the first one at or after its start line, which a store
// finds by binary search when no load covers its start line; so a long store
// costs nothing on the lines no load touches.
func indexBuckets(res *Result, storeStore bool) *bucketIndex {
	ordinal := make(map[uint64]int32)
	addLine := func(line uint64) { ordinal[line] = 0 }
	for i := range res.Loads {
		linesOf(res.Loads[i].Addr, res.Loads[i].Size, addLine)
	}
	if storeStore {
		for i := range res.Stores {
			linesOf(res.Stores[i].Addr, res.Stores[i].Size, addLine)
		}
	}
	bx := &bucketIndex{lines: make([]uint64, 0, len(ordinal))}
	for line := range ordinal {
		bx.lines = append(bx.lines, line)
	}
	slices.Sort(bx.lines)
	for b, line := range bx.lines {
		ordinal[line] = int32(b)
	}

	// span returns the buckets [lo, hi) of the record at addr.
	span := func(addr uint64, size uint32) (lo, hi int) {
		line, last := pmem.LineOf(addr), pmem.LineOf(lastAddrOf(addr, size))
		if b, ok := ordinal[line]; ok {
			lo = int(b)
		} else {
			lo, _ = slices.BinarySearch(bx.lines, line)
		}
		hi = lo
		for hi < len(bx.lines) && bx.lines[hi] <= last {
			hi++
		}
		return lo, hi
	}
	bx.storeOff, bx.stores = fillBuckets(len(bx.lines), len(res.Stores), func(i int) (int, int) {
		return span(res.Stores[i].Addr, res.Stores[i].Size)
	})
	bx.loadOff, bx.loads = fillBuckets(len(bx.lines), len(res.Loads), func(i int) (int, int) {
		return span(res.Loads[i].Addr, res.Loads[i].Size)
	})
	return bx
}

// fillBuckets lays out one record kind's bucket ranges by counting sort over
// n buckets, where record i falls in the buckets span(i). It returns the
// range offsets (bucket b is idx[off[b]:off[b+1]]) and the record indices,
// in record order within each bucket: the fill runs over the records
// backwards, moving each bucket's offset from its end down to its start.
func fillBuckets(n, records int, span func(i int) (lo, hi int)) (off []int, idx []int32) {
	off = make([]int, n+1)
	for i := range records {
		lo, hi := span(i)
		for b := lo; b < hi; b++ {
			off[b]++
		}
	}
	total := 0
	for b := range n {
		total += off[b]
		off[b] = total
	}
	off[n] = total
	idx = make([]int32, total)
	for i := records - 1; i >= 0; i-- {
		lo, hi := span(i)
		for b := lo; b < hi; b++ {
			off[b]--
			idx[off[b]] = int32(i)
		}
	}
	return off, idx
}

// bucketCost is bucket b's pairing cost: stores×loads, plus the store-store
// pairs when those are enabled, plus one for the bucket itself.
func (bx *bucketIndex) bucketCost(b int, storeStore bool) uint64 {
	n := uint64(bx.storeOff[b+1] - bx.storeOff[b])
	c := n*uint64(bx.loadOff[b+1]-bx.loadOff[b]) + 1
	if storeStore {
		// n stores pair as n(n-1)/2, not n²/2: the n/2 overcharge per
		// bucket made thousands of single-store buckets (0 real pairs,
		// charged ½ each) look as expensive as genuine pairing work and
		// skewed the shard boundaries toward them.
		c += n * (n - 1) / 2
	}
	return c
}

// partitionLines splits the buckets into at most workers contiguous ranges
// [lo, hi) of bucket ordinals with roughly equal pairing cost. Contiguity
// keeps the merge a simple in-order concatenation; cost weighting keeps a
// few dense buckets from serializing the whole analysis.
func partitionLines(bx *bucketIndex, workers int, storeStore bool) [][2]int {
	n := len(bx.lines)
	if workers <= 1 || n <= 1 {
		return [][2]int{{0, n}}
	}
	var total uint64
	for b := range n {
		total += bx.bucketCost(b, storeStore)
	}
	target := total/uint64(workers) + 1
	parts := make([][2]int, 0, workers)
	start := 0
	var acc uint64
	for b := range n {
		acc += bx.bucketCost(b, storeStore)
		if acc >= target && len(parts) < workers-1 {
			parts = append(parts, [2]int{start, b + 1})
			start = b + 1
			acc = 0
		}
	}
	if start < n {
		parts = append(parts, [2]int{start, n})
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

// report returns the shard's report for key, creating it from its first
// pair's example fields.
func (o *shardResult) report(res *Result, key reportKey, addr uint64, storeTID, loadTID int32, end EndKind) *Report {
	if rep := o.reports[key]; rep != nil {
		return rep
	}
	rep := &Report{
		StoreSite:  key.store,
		LoadSite:   key.load,
		StoreFrame: res.Sites.Lookup(key.store),
		LoadFrame:  res.Sites.Lookup(key.load),
		Addr:       addr,
		StoreTID:   storeTID,
		LoadTID:    loadTID,
		EndKind:    end,
		StoreStore: key.storeStore,
	}
	o.reports[key] = rep
	if key.storeStore {
		o.orderSS = append(o.orderSS, key)
	} else {
		o.orderSL = append(o.orderSL, key)
	}
	return rep
}

// reportCacheSize is the number of load sites a shard's report cache maps
// without collision.
const reportCacheSize = 1 << 10

// loadCol is one load record's pairing fields, copied into a bucket's packed
// columns before the bucket's stores are paired with it.
type loadCol struct {
	addr, last uint64
	sig        uint64 // lockset signature
	count      uint64
	ep         vclock.Epoch
	tid        int32
	ls         lockset.ID
	site       sites.ID
	// cont marks a load that starts on an earlier line. A pair is processed
	// in the first line both records cover, so a store that also starts
	// earlier met this load in an earlier bucket.
	cont bool
}

// analyzeShard runs the pairing loops of Algorithm 1 over one contiguous
// range of buckets. It touches only shard-private state plus the read-only
// records and interning tables, so shards run concurrently without locks.
func analyzeShard(res *Result, cfg Config, bx *bucketIndex, part [2]int) *shardResult {
	out := &shardResult{reports: make(map[reportKey]*Report)}
	cmp := &comparer{ls: res.Locksets, disjMemo: make(map[[2]lockset.ID]bool)}
	vc, hb := res.VClocks, cfg.HBFilter
	maxLoads := 0
	for b := part[0]; b < part[1]; b++ {
		if bx.storeOff[b] < bx.storeOff[b+1] {
			maxLoads = max(maxLoads, bx.loadOff[b+1]-bx.loadOff[b])
		}
	}
	cols := make([]loadCol, 0, maxLoads)
	// cache holds, by load site, the report of the last store site that
	// raced with that load site. Site IDs index the site table, so the
	// cache is direct-mapped by the ID's low bits, and a report for another
	// site pair is a miss that looks the pair up in the shard's map.
	var cache [reportCacheSize]*Report
	var stats pairStats
	for b := part[0]; b < part[1]; b++ {
		stores := bx.stores[bx.storeOff[b]:bx.storeOff[b+1]]
		if len(stores) == 0 {
			continue
		}
		line := bx.lines[b]
		lds := cols[:0]
		for _, li := range bx.loads[bx.loadOff[b]:bx.loadOff[b+1]] {
			ld := &res.Loads[li]
			lds = append(lds, loadCol{
				addr:  ld.Addr,
				last:  lastAddrOf(ld.Addr, ld.Size),
				sig:   res.Locksets.Sig(ld.LS),
				count: ld.Count,
				ep:    vc.Epoch(ld.VC),
				tid:   ld.TID,
				ls:    ld.LS,
				site:  ld.Site,
				cont:  pmem.LineOf(ld.Addr) < line,
			})
		}
		for _, si := range stores {
			s := &res.Stores[si]
			last := lastAddrOf(s.Addr, s.Size)
			cont := pmem.LineOf(s.Addr) < line
			sig := res.Locksets.Sig(s.Eff)
			unpersisted := s.EndKind != EndPersist
			var start vclock.VC
			var end vclock.Epoch
			hasEnd := hb && s.End != NoVC
			if hb {
				start = vc.Get(s.Start)
			}
			if hasEnd {
				end = vc.Epoch(s.End)
			}
			for i := range lds {
				ld := &lds[i]
				// A record spanning several lines appears in several
				// buckets. Process the pair only in the first bucket the two
				// records share: that counts it exactly once for any
				// sharding of the bucket list.
				if cont && ld.cont {
					continue
				}
				stats.checked++
				// Algorithm 1 line 16, then line 15's overlap as an
				// inclusive-last interval test.
				if ld.tid == s.TID || s.Addr > ld.last || ld.addr > last {
					continue
				}
				// Line 17, the happens-before filter (§3.1.2): the load can
				// fall inside the store's unpersisted window unless it
				// happens-before the store instruction or the window's end
				// (persist or overwrite) happens-before the load. Using the
				// window end clock is what lets the analysis catch Fig. 3's
				// Store₃/Persist₃ case.
				if hb && (ld.ep.Leq(start) || hasEnd && end.Leq(ld.ep.Clock())) {
					stats.hbFiltered++
					continue
				}
				// Line 18. A zero signature AND proves disjointness, and
				// equal non-empty IDs are never disjoint.
				if sig&ld.sig != 0 && (s.Eff == ld.ls || !cmp.disjoint(s.Eff, ld.ls)) {
					stats.lockFiltered++
					continue
				}
				c := &cache[ld.site&(reportCacheSize-1)]
				rep := *c
				if rep == nil || rep.StoreSite != s.Site || rep.LoadSite != ld.site {
					rep = out.report(res, reportKey{store: s.Site, load: ld.site}, s.Addr, s.TID, ld.tid, s.EndKind)
					*c = rep
				}
				rep.Pairs++
				rep.Weight += s.Count * ld.count
				if unpersisted {
					rep.Unpersisted = true
					rep.EndKind = s.EndKind
					// Keep the example fields describing one real pair: a
					// report downgraded to a non-persist end kind must point
					// at the access pair that exhibits it, not at the first
					// (possibly persisted) pair's location.
					rep.Addr = s.Addr
					rep.StoreTID = s.TID
					rep.LoadTID = ld.tid
				}
			}
		}
	}
	out.stats = stats
	if cfg.StoreStore {
		analyzeStoreStoreShard(res, cfg, bx, part, cmp, out)
	}
	return out
}

// analyzeStoreStoreShard pairs store windows with each other — the
// write-write checking of classic lockset analysis that HawkSet deliberately
// omits (§3.1.1). Two windows race if they can overlap in time (neither
// window end happens-before the other's start) and their effective locksets
// are disjoint.
func analyzeStoreStoreShard(res *Result, cfg Config, bx *bucketIndex, part [2]int, cmp *comparer, out *shardResult) {
	for b := part[0]; b < part[1]; b++ {
		line := bx.lines[b]
		stores := bx.stores[bx.storeOff[b]:bx.storeOff[b+1]]
		for i, si := range stores {
			st := &res.Stores[si]
			for _, sj := range stores[i+1:] {
				st2 := &res.Stores[sj]
				if st.TID == st2.TID || !overlaps(st.Addr, st.Size, st2.Addr, st2.Size) {
					continue
				}
				// The pair is processed in the first line both cover.
				if pmem.LineOf(st.Addr) < line && pmem.LineOf(st2.Addr) < line {
					continue
				}
				// Write-write racing is judged at the store instructions
				// themselves (the classic HB data-race check): an overwrite
				// ends the earlier window exactly at the later store, so
				// window-overlap reasoning would vacuously order every
				// overwriting pair.
				if cfg.HBFilter && (res.VClocks.LeqID(st.Start, st2.Start) || res.VClocks.LeqID(st2.Start, st.Start)) {
					continue
				}
				if !cmp.disjoint(st.Eff, st2.Eff) {
					continue
				}
				rep := out.report(res, reportKey{store: st.Site, load: st2.Site, storeStore: true}, st.Addr, st.TID, st2.TID, st.EndKind)
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

// comparer memoizes lockset comparisons. Each analysis shard owns one: the
// memo map is written during pairing, while the underlying interning table
// is read-only by then.
//
// disjoint first intersects the precomputed lock signatures (zero proves
// disjointness) and walks small sets directly; only large inconclusive
// pairs reach the memo.
type comparer struct {
	ls       *lockset.Table
	disjMemo map[[2]lockset.ID]bool
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
