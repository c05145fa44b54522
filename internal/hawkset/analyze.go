package hawkset

import (
	"cmp"
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
// replay), and locksets and clocks are compared by interned ID. The grouping
// is a flat bucketIndex of the lines a load covers. Within a bucket the
// pairing is a join over the loads in start-address order, not a walk over
// every store × load pair:
//
//   - A counting sort orders the bucket's loads by their offset in the line,
//     loads that start on an earlier line first. Loads that differ only in
//     lockset, count and record form one run, so a line read at one address
//     by a few threads at a few clocks holds a few runs, however many
//     locksets its loads carry.
//   - A store binary-searches the first run whose running-maximum last byte
//     reaches its address, and stops at the first run that starts past its
//     last byte.
//   - Happens-before is decided once per load clock for each pair of store
//     clocks, and lock disjointness once per (effective lockset, load
//     lockset) while the effective lockset repeats, in arrays indexed by
//     interned ID. A run whose lock signatures share no bit with the
//     store's races whole, on sums kept per run.
//   - A store's racing runs add into one sum per load site: the pairs, the
//     load counts, and the lowest and highest racing record with its
//     thread. After the store each sum is folded into its report, and new
//     reports are created in order of their lowest racing record. That is
//     the order in which a walk over the pairs in record order meets them,
//     and it gives the same example fields: a new report's example is its
//     first racing pair, and an unpersisted window rewrites it with its
//     last.
//
// Stats.PairsChecked counts, without visiting them, the pairs such a walk
// checks: every load of the bucket per store, less the loads that start on
// an earlier line when the store does too. The side-band
// hawkset.pairs.visited counter counts the pairs the address search
// reaches.
//
// The buckets are independent work units, so the pairing is sharded across
// GOMAXPROCS goroutines: the bucket list is partitioned into contiguous
// ranges, each worker runs with a private report map, memos and counters,
// and the per-shard results are merged in shard order. The merge reproduces
// the sequential order exactly, so the output is byte-identical to a
// single-shard run for any GOMAXPROCS. analyze returns the visited count.
func analyze(res *Result, cfg Config) (visited uint64) {
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
	for _, o := range outs {
		visited += o.stats.visited
	}
	return visited
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
// pairs when those are enabled, plus one for the bucket itself. The
// store-load term is the bucket's share of Stats.PairsChecked, an upper
// bound on what the join visits: exact for a line whose loads all cover the
// stores' bytes, an overcharge for one whose loads spread over the line.
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

// pairStats is the per-shard slice of the Stats pair counters, plus the
// visited count, which is side-band only and never enters Stats.
type pairStats struct {
	checked, hbFiltered, lockFiltered, visited uint64
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

// loadRun is a group of a bucket's loads that differ only in lockset,
// count and record: the same bytes, thread, clock and site.
type loadRun struct {
	addr, last uint64
	// maxLast is the largest last byte of this run and the runs before it.
	maxLast uint64
	// sigs is the union of the members' lockset signatures, and count the
	// sum of their counts.
	sigs, count uint64
	vc          vclock.ID
	tid         int32
	slot        int32 // the load site's slot in join.slots
	lo, hi      int32 // the members, join.members[lo:hi], in record order
}

// loadMember is one load record of a run.
type loadMember struct {
	sig   uint64 // the lockset's signature
	count uint64
	ls    lockset.ID
	rec   int32 // index into Result.Loads
}

// runTabSize is the number of entries of the table build finds runs by.
const runTabSize = 1 << 10

// runTabEntry is the run last created at one index of the run table, valid
// while group names the start key being grouped.
type runTabEntry struct {
	group int
	run   int32
}

// siteSlot is one load site of a shard, with the racing sums of the store
// that stamp names.
type siteSlot struct {
	site           sites.ID
	stamp          int
	pairs          int
	count          uint64
	minRec, maxRec int32
	minTID, maxTID int32
}

// hbVerdict memoizes one load clock's happens-before decision for the store
// clocks that stamp names.
type hbVerdict struct {
	stamp   int
	ordered bool
}

// join is one shard's pairing state: the current bucket's loads as runs,
// and the memos and sums that outlive a bucket.
type join struct {
	res  *Result
	line uint64
	// runs are the bucket's runs in start-key order and members their loads;
	// the first contRuns runs, holding contLoads loads, start on an earlier
	// line. order and runOf are build's scratch.
	runs                []loadRun
	members             []loadMember
	contRuns, contLoads int
	order, runOf        []int32
	runTab              [runTabSize]runTabEntry
	group               int // counts the start keys grouped, stamping runTab

	stamp int // advanced per paired store
	// hb holds the verdicts by load clock for the store clocks start and
	// end, resolved as startVC and endEp; hbStamp advances when they change.
	hb         []hbVerdict
	hbStamp    int
	start, end vclock.ID
	startVC    vclock.VC
	endEp      vclock.Epoch

	locks   lockMemo
	slotOf  map[sites.ID]int32
	slots   []siteSlot
	touched []int32 // the slots the current store raced with
	// reps caches reports by store site and load slot, so that a store
	// finds its reports without a map lookup; a report of another site
	// pair at a store's index is a miss.
	reps  [repCacheSize]*Report
	stats pairStats
}

// repCacheSize is the number of entries of join.reps.
const repCacheSize = 1 << 10

// analyzeShard runs the pairing of Algorithm 1 over one contiguous range of
// buckets. It touches only shard-private state plus the read-only records
// and interning tables, so shards run concurrently without locks.
func analyzeShard(res *Result, cfg Config, bx *bucketIndex, part [2]int) *shardResult {
	out := &shardResult{reports: make(map[reportKey]*Report)}
	maxLoads := 0
	for b := part[0]; b < part[1]; b++ {
		if bx.storeOff[b] < bx.storeOff[b+1] {
			maxLoads = max(maxLoads, bx.loadOff[b+1]-bx.loadOff[b])
		}
	}
	j := &join{
		res:     res,
		members: make([]loadMember, maxLoads),
		order:   make([]int32, maxLoads),
		runOf:   make([]int32, maxLoads),
		hb:      make([]hbVerdict, res.VClocks.Len()),
		start:   NoVC, // no store's start clock
		locks:   newLockMemo(res.Locksets),
		slotOf:  make(map[sites.ID]int32),
	}
	for b := part[0]; b < part[1]; b++ {
		stores := bx.stores[bx.storeOff[b]:bx.storeOff[b+1]]
		if len(stores) == 0 || bx.loadOff[b] == bx.loadOff[b+1] {
			continue
		}
		j.build(bx.lines[b], bx.loads[bx.loadOff[b]:bx.loadOff[b+1]])
		for _, si := range stores {
			j.pair(&res.Stores[si], cfg.HBFilter, out)
		}
	}
	out.stats = j.stats
	if cfg.StoreStore {
		analyzeStoreStoreShard(res, cfg, bx, part, &j.locks, out)
	}
	return out
}

// build groups the loads of the bucket of line, given by their record
// indices in record order, into runs. A counting sort orders them by start
// key: the offset in the line, or 0 for a load that starts on an earlier
// line. Within each key, a table indexed by a hash of the run fields finds
// the run a load joins, or a new one is made (two runs that meet at one
// index only split a run, which is still exact), and the runs' members are
// laid out run by run, in record order.
func (j *join) build(line uint64, loads []int32) {
	res := j.res
	key := func(addr uint64) int32 {
		if pmem.LineOf(addr) < line {
			return 0
		}
		return 1 + int32(addr%pmem.LineSize)
	}
	var next [1 + pmem.LineSize]int32 // per key: its count, then its next place in order
	for _, li := range loads {
		next[key(res.Loads[li].Addr)]++
	}
	var n int32
	for k, c := range next {
		next[k] = n
		n += c
	}
	j.order, j.runOf = j.order[:len(loads)], j.runOf[:len(loads)]
	order, runOf := j.order, j.runOf
	for _, li := range loads {
		k := key(res.Loads[li].Addr)
		order[next[k]] = li
		next[k]++
	}

	j.line, j.runs = line, j.runs[:0]
	var start int32
	for k, end := range next { // next[k] is now the end of key k
		first := len(j.runs)
		j.group++
		for i := start; i < end; i++ {
			ld := &res.Loads[order[i]]
			last := lastAddrOf(ld.Addr, ld.Size)
			e := &j.runTab[hash2(last^uint64(uint32(ld.Site))<<32, uint64(uint32(ld.TID))<<32|uint64(uint32(ld.VC)))%runTabSize]
			if e.group != j.group || !j.holds(e.run, ld, last) {
				*e = runTabEntry{group: j.group, run: int32(len(j.runs))}
				j.runs = append(j.runs, loadRun{addr: ld.Addr, last: last, vc: ld.VC, tid: ld.TID, slot: j.slot(ld.Site)})
			}
			r := &j.runs[e.run]
			r.hi++ // the member count, until the layout below
			r.sigs |= res.Locksets.Sig(ld.LS)
			r.count += ld.Count
			runOf[i] = e.run
		}
		at := start
		for r := first; r < len(j.runs); r++ {
			j.runs[r].lo, j.runs[r].hi, at = at, at, at+j.runs[r].hi
		}
		for i := start; i < end; i++ {
			ld := &res.Loads[order[i]]
			r := &j.runs[runOf[i]]
			j.members[r.hi] = loadMember{sig: res.Locksets.Sig(ld.LS), count: ld.Count, ls: ld.LS, rec: order[i]}
			r.hi++
		}
		if k == 0 {
			j.contRuns, j.contLoads = len(j.runs), int(end)
		}
		start = end
	}
	var maxLast uint64
	for r := range j.runs {
		maxLast = max(maxLast, j.runs[r].last)
		j.runs[r].maxLast = maxLast
	}
}

// holds reports whether run r of the current key holds the loads like ld,
// whose last byte is last.
func (j *join) holds(r int32, ld *LoadData, last uint64) bool {
	run := &j.runs[r]
	return run.addr == ld.Addr && run.last == last && run.tid == ld.TID && run.vc == ld.VC && j.slots[run.slot].site == ld.Site
}

// slot returns the slot of load site site, adding one for a new site.
func (j *join) slot(site sites.ID) int32 {
	s, ok := j.slotOf[site]
	if !ok {
		s = int32(len(j.slots))
		j.slotOf[site] = s
		j.slots = append(j.slots, siteSlot{site: site})
	}
	return s
}

// pair pairs store s with the current bucket's loads and folds the racing
// pairs into the shard's reports.
func (j *join) pair(s *StoreData, hb bool, out *shardResult) {
	vc := j.res.VClocks
	j.stamp++
	runs, checked := j.runs, len(j.order)
	if pmem.LineOf(s.Addr) < j.line {
		// A pair is processed in the first line both records cover: a load
		// that also starts on an earlier line met this store there.
		runs, checked = runs[j.contRuns:], checked-j.contLoads
	}
	j.stats.checked += uint64(checked)
	if hb && (s.Start != j.start || s.End != j.end) {
		// A verdict depends on the store only through its two clocks.
		j.hbStamp++
		j.start, j.end, j.startVC = s.Start, s.End, vc.Get(s.Start)
		if s.End != NoVC {
			j.endEp = vc.Epoch(s.End)
		}
	}
	sig := j.res.Locksets.Sig(s.Eff)
	last := lastAddrOf(s.Addr, s.Size)
	lo, hi := 0, len(runs) // the first run whose maxLast reaches the store
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); runs[m].maxLast < s.Addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for i := lo; i < len(runs) && runs[i].addr <= last; i++ {
		r := &runs[i]
		n := uint64(r.hi - r.lo)
		j.stats.visited += n
		// Algorithm 1 line 16, then line 15's overlap as an inclusive-last
		// interval test.
		if r.tid == s.TID || r.last < s.Addr {
			continue
		}
		// Line 17, the happens-before filter (§3.1.2): the load can fall
		// inside the store's unpersisted window unless it happens-before
		// the store instruction or the window's end (persist or overwrite)
		// happens-before the load. Using the window end clock is what lets
		// the analysis catch Fig. 3's Store₃/Persist₃ case.
		if hb {
			v := &j.hb[r.vc]
			if v.stamp != j.hbStamp {
				ep := vc.Epoch(r.vc)
				*v = hbVerdict{stamp: j.hbStamp, ordered: ep.Leq(j.startVC) || j.end != NoVC && j.endEp.Leq(ep.Clock())}
			}
			if v.ordered {
				j.stats.hbFiltered += n
				continue
			}
		}
		// Line 18. A zero signature AND proves disjointness, for every
		// member at once on the run's union; equal non-empty IDs are never
		// disjoint.
		if sig&r.sigs == 0 {
			j.add(r, int(n), r.count, j.members[r.lo].rec, j.members[r.hi-1].rec)
			continue
		}
		pairs, count, first, lastRec := 0, uint64(0), int32(0), int32(0)
		for _, m := range j.members[r.lo:r.hi] {
			if sig&m.sig != 0 && (m.ls == s.Eff || !j.locks.disjoint(s.Eff, m.ls)) {
				j.stats.lockFiltered++
				continue
			}
			if pairs == 0 {
				first = m.rec
			}
			pairs++
			count += m.count
			lastRec = m.rec
		}
		if pairs > 0 {
			j.add(r, pairs, count, first, lastRec)
		}
	}
	j.fold(s, out)
}

// add adds pairs racing members of run r, with counts summing to count and
// lowest and highest record indices first and last, to the sum of r's load
// site for the current store.
func (j *join) add(r *loadRun, pairs int, count uint64, first, last int32) {
	sl := &j.slots[r.slot]
	if sl.stamp != j.stamp {
		*sl = siteSlot{site: sl.site, stamp: j.stamp, minRec: first, maxRec: last, minTID: r.tid, maxTID: r.tid}
		j.touched = append(j.touched, r.slot)
	} else {
		if first < sl.minRec {
			sl.minRec, sl.minTID = first, r.tid
		}
		if last > sl.maxRec {
			sl.maxRec, sl.maxTID = last, r.tid
		}
	}
	sl.pairs += pairs
	sl.count += count
}

// fold adds store s's per-site sums to their reports. New reports are
// created in order of their lowest racing record, with that pair as their
// example; an unpersisted window makes its highest racing record the
// example.
func (j *join) fold(s *StoreData, out *shardResult) {
	if len(j.touched) > 1 {
		slices.SortFunc(j.touched, func(a, b int32) int { return cmp.Compare(j.slots[a].minRec, j.slots[b].minRec) })
	}
	for _, slot := range j.touched {
		sl := &j.slots[slot]
		c := &j.reps[hash2(uint64(s.Site), uint64(slot))%repCacheSize]
		rep := *c
		if rep == nil || rep.StoreSite != s.Site || rep.LoadSite != sl.site {
			rep = out.report(j.res, reportKey{store: s.Site, load: sl.site}, s.Addr, s.TID, sl.minTID, s.EndKind)
			*c = rep
		}
		rep.Pairs += sl.pairs
		rep.Weight += s.Count * sl.count
		if s.EndKind != EndPersist {
			rep.Unpersisted = true
			rep.EndKind = s.EndKind
			// Keep the example fields describing one real pair: a report
			// downgraded to a non-persist end kind must point at the access
			// pair that exhibits it, not at the first (possibly persisted)
			// pair's location.
			rep.Addr = s.Addr
			rep.StoreTID = s.TID
			rep.LoadTID = sl.maxTID
		}
	}
	j.touched = j.touched[:0]
}

// analyzeStoreStoreShard pairs store windows with each other — the
// write-write checking of classic lockset analysis that HawkSet deliberately
// omits (§3.1.1). Two windows race if they can overlap in time (neither
// window end happens-before the other's start) and their effective locksets
// are disjoint.
func analyzeStoreStoreShard(res *Result, cfg Config, bx *bucketIndex, part [2]int, locks *lockMemo, out *shardResult) {
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
				if !locks.disjoint(st.Eff, st2.Eff) {
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

// lockMemo decides whether two interned locksets share a lock identity,
// once per pair of IDs (a, b) for the latest a seen with each b. Each
// analysis shard owns one; the interning table is read-only by then.
type lockMemo struct {
	ls *lockset.Table
	of []lockVerdict // indexed by b
}

// lockVerdict is the memoized verdict for (left-1, b).
type lockVerdict struct {
	left     lockset.ID
	disjoint bool
}

func newLockMemo(ls *lockset.Table) lockMemo {
	return lockMemo{ls: ls, of: make([]lockVerdict, ls.Len())}
}

// disjoint reports whether the two locksets share no lock identity.
func (m *lockMemo) disjoint(a, b lockset.ID) bool {
	if v := m.of[b]; v.left == a+1 {
		return v.disjoint
	}
	return m.decide(a, b)
}

// decide decides (a, b) and memoizes the verdict. Empty sets are disjoint
// from everything; equal non-empty IDs are never disjoint (integer
// short-circuit, §4); a zero AND of the lock signatures proves disjointness
// without a walk.
func (m *lockMemo) decide(a, b lockset.ID) bool {
	d := a == 0 || b == 0 || a != b && (m.ls.Sig(a)&m.ls.Sig(b) == 0 || lockset.DisjointLocks(m.ls.Get(a), m.ls.Get(b)))
	m.of[b] = lockVerdict{left: a + 1, disjoint: d}
	return d
}
