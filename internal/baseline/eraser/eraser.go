// Package eraser implements traditional lockset analysis (Savage et al.,
// TOCS'97) over the same execution traces HawkSet consumes. It is the
// ablation baseline of §3.1.1: PM-oblivious locksets attached to each access
// at the moment it executes, no effective lockset, no persistency semantics,
// no happens-before pruning, and store-store checking included (classic
// Eraser reports write-write races; HawkSet deliberately does not, §3.1.1).
//
// On PM programs this baseline exhibits exactly the failures the paper
// motivates: it misses Figure 1c (store and load share a lock, so the
// persistency escaping the critical section is invisible) and floods
// reports for initialization patterns.
package eraser

import (
	"sort"

	"hawkset/internal/lockset"
	"hawkset/internal/pmem"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
)

// Report is one traditional lockset race: two accesses to overlapping
// memory from different threads with disjoint locksets, at least one being
// a store.
type Report struct {
	AFrame, BFrame sites.Frame
	AStore, BStore bool
	Addr           uint64
	Pairs          int
}

// Result is the analysis output.
type Result struct {
	Reports []Report
	Records int
}

type record struct {
	tid   int32
	addr  uint64
	size  uint32
	site  sites.ID
	ls    lockset.ID
	store bool
	count uint64
}

type recKey struct {
	tid   int32
	addr  uint64
	size  uint32
	site  sites.ID
	ls    lockset.ID
	store bool
}

// Analyze runs traditional lockset analysis over a trace.
func Analyze(tr *trace.Trace) *Result {
	ls := lockset.NewTable()
	threads := map[int32]lockset.Set{}
	recs := map[recKey]*record{}
	var order []*record

	for e := range tr.Events() {
		switch e.Kind {
		case trace.KLockAcq:
			threads[e.TID] = threads[e.TID].Add(e.Lock, 0)
		case trace.KLockRel:
			threads[e.TID] = threads[e.TID].Remove(e.Lock)
		case trace.KStore, trace.KNTStore, trace.KLoad:
			key := recKey{
				tid: e.TID, addr: e.Addr, size: e.Size, site: e.Site,
				ls:    ls.Intern(threads[e.TID]),
				store: e.Kind != trace.KLoad,
			}
			if r, ok := recs[key]; ok {
				r.count++
				continue
			}
			r := &record{tid: key.tid, addr: key.addr, size: key.size,
				site: key.site, ls: key.ls, store: key.store, count: 1}
			recs[key] = r
			order = append(order, r)
		}
	}

	// Bucket by cache line, pair up, report disjoint locksets.
	buckets := map[uint64][]*record{}
	for _, r := range order {
		size := r.size
		if size == 0 {
			size = 1
		}
		for l, last := pmem.LineOf(r.addr), pmem.LineOf(pmem.LastByte(r.addr, uint64(size))); l <= last; l++ {
			buckets[l] = append(buckets[l], r)
		}
	}
	lineKeys := make([]uint64, 0, len(buckets))
	for l := range buckets {
		lineKeys = append(lineKeys, l)
	}
	sort.Slice(lineKeys, func(i, j int) bool { return lineKeys[i] < lineKeys[j] })

	type pairSeen struct{ a, b *record }
	seen := map[pairSeen]struct{}{}
	reports := map[[2]sites.ID]*Report{}
	for _, l := range lineKeys {
		b := buckets[l]
		for i, ra := range b {
			for _, rb := range b[i+1:] {
				if ra.tid == rb.tid || (!ra.store && !rb.store) {
					continue
				}
				if !overlaps(ra.addr, ra.size, rb.addr, rb.size) {
					continue
				}
				pk := pairSeen{ra, rb}
				if _, dup := seen[pk]; dup {
					continue
				}
				seen[pk] = struct{}{}
				if !lockset.DisjointLocks(ls.Get(ra.ls), ls.Get(rb.ls)) {
					continue
				}
				key := [2]sites.ID{ra.site, rb.site}
				rep := reports[key]
				if rep == nil {
					rep = &Report{
						AFrame: tr.Sites.Lookup(ra.site), BFrame: tr.Sites.Lookup(rb.site),
						AStore: ra.store, BStore: rb.store, Addr: ra.addr,
					}
					reports[key] = rep
				}
				rep.Pairs++
			}
		}
	}
	res := &Result{Records: len(order)}
	for _, r := range reports {
		res.Reports = append(res.Reports, *r)
	}
	sort.Slice(res.Reports, func(i, j int) bool {
		a, b := res.Reports[i], res.Reports[j]
		if a.AFrame.String() != b.AFrame.String() {
			return a.AFrame.String() < b.AFrame.String()
		}
		return b.BFrame.String() > a.BFrame.String()
	})
	return res
}

// overlaps reports whether two access ranges share a byte, counting a size-0
// access as one byte. It compares in subtraction form: bAddr+bSize wraps
// for a range that ends at the top of the address space.
func overlaps(aAddr uint64, aSize uint32, bAddr uint64, bSize uint32) bool {
	if aSize == 0 {
		aSize = 1
	}
	if bSize == 0 {
		bSize = 1
	}
	if aAddr >= bAddr {
		return aAddr-bAddr < uint64(bSize)
	}
	return bAddr-aAddr < uint64(aSize)
}

// Has reports whether a race between the two named sites (in either order)
// was reported.
func (r *Result) Has(siteA, siteB string) bool {
	for _, rep := range r.Reports {
		a, b := rep.AFrame.String(), rep.BFrame.String()
		if (a == siteA && b == siteB) || (a == siteB && b == siteA) {
			return true
		}
	}
	return false
}
