package hawkset

import (
	"hawkset/internal/lockset"
	"hawkset/internal/pmem"
)

// pairLoopAnalyze is stage ③ as a walk over every store × load pair of each
// bucket, one pair at a time, stores and loads in record order: the loop the
// address-ordered join replaced, kept as the reference
// TestKernelMatchesPairLoop holds the join to. It decides each pair from
// the records alone, with no memo, run or per-site sum, in one shard; it
// shares the bucket index, the store-store pairing and the merge with
// analyze.
func pairLoopAnalyze(res *Result, cfg Config) {
	bx := indexBuckets(res, cfg.StoreStore)
	out := &shardResult{reports: make(map[reportKey]*Report)}
	vc := res.VClocks
	for b, line := range bx.lines {
		for _, si := range bx.stores[bx.storeOff[b]:bx.storeOff[b+1]] {
			s := res.Stores.At(int(si))
			for _, li := range bx.loads[bx.loadOff[b]:bx.loadOff[b+1]] {
				ld := res.Loads.At(int(li))
				// The pair is processed in the first line both records cover.
				if pmem.LineOf(s.Addr) < line && pmem.LineOf(ld.Addr) < line {
					continue
				}
				out.stats.checked++
				if ld.TID == s.TID || !overlaps(s.Addr, s.Size, ld.Addr, ld.Size) {
					continue
				}
				if cfg.HBFilter && (vc.LeqID(ld.VC, s.Start) || s.End != NoVC && vc.LeqID(s.End, ld.VC)) {
					out.stats.hbFiltered++
					continue
				}
				if !lockset.DisjointLocks(res.Locksets.Get(s.Eff), res.Locksets.Get(ld.LS)) {
					out.stats.lockFiltered++
					continue
				}
				rep := out.report(res, reportKey{store: s.Site, load: ld.Site}, s.Addr, s.TID, ld.TID, s.EndKind)
				rep.Pairs++
				rep.Weight += s.Count * ld.Count
				if s.EndKind != EndPersist {
					rep.Unpersisted = true
					rep.EndKind = s.EndKind
					rep.Addr = s.Addr
					rep.StoreTID = s.TID
					rep.LoadTID = ld.TID
				}
			}
		}
	}
	if cfg.StoreStore {
		locks := newLockMemo(res.Locksets)
		analyzeStoreStoreShard(res, cfg, bx, [2]int{0, len(bx.lines)}, &locks, out)
	}
	mergeShards(res, []*shardResult{out})
}
