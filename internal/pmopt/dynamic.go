package pmopt

// Dynamic redundancy analysis over the recorded device-op journal. The
// journal replays through pmem's worst-case device (pmem.Replayer), which
// reports, at every fence, which committed snapshots actually changed the
// persistent image. A flush whose snapshot is byte-identical to what the
// persistent view already held at commit time did no work; a fence whose
// batch holds only such snapshots from its own site did none either. The
// verdict is per occurrence — a site is eliminable only when every one of
// its journaled ops was a no-op and none of its snapshots was left
// uncommitted at run end.

import (
	"hawkset/internal/pmem"
	"hawkset/internal/report"
	"hawkset/internal/sites"
)

// siteDyn aggregates the dynamic evidence for one flush/fence site, keyed by
// module-relative "file.go:line".
type siteDyn struct {
	FlushOps int // journaled OpFlush issued from the site
	FenceOps int // journaled OpFence issued from the site
	// ChangelessFlush counts flush ops whose snapshot equalled the
	// persistent content at commit; RedundantFence counts fence ops whose
	// whole batch was own-site and changeless (vacuously: empty).
	ChangelessFlush int
	RedundantFence  int
	EmptyFence      int
	// Uncommitted counts snapshots from this site still pending when the run
	// ended — their effect is unknown, so the site is never eliminable.
	// During the replay it counts the site's currently pending snapshots.
	Uncommitted int
	// Changeless-flush classification, by cause.
	DupFlush   int // an earlier batch entry already snapshotted the line
	NTFlush    int // the line's fresh bytes were queued by an NT store
	CleanFlush int // the line was simply never (effectively) dirtied
}

// Op names the site's operation shape for the report.
func (d *siteDyn) Op() string {
	switch {
	case d.FlushOps > 0 && d.FenceOps > 0:
		return "persist"
	case d.FenceOps > 0:
		return "fence"
	}
	return "flush"
}

// Occurrences is the count of journaled device ops the site issued.
func (d *siteDyn) Occurrences() int { return d.FlushOps + d.FenceOps }

// Redundant is the count of those ops that were provable no-ops.
func (d *siteDyn) Redundant() int { return d.ChangelessFlush + d.RedundantFence }

// Eliminable reports whether every occurrence was a no-op: the site can be
// elided without changing any committed image (still verified by the apply
// gate — this is the candidate filter, not the safety proof).
func (d *siteDyn) Eliminable() bool {
	return d.Occurrences() > 0 && d.Redundant() == d.Occurrences() && d.Uncommitted == 0
}

// Kind classifies the site's dominant redundancy for dynamic-only
// candidates, by majority over its changeless flushes.
func (d *siteDyn) Kind() string {
	if d.FenceOps > 0 && d.FlushOps == 0 {
		return "empty-fence"
	}
	switch {
	case d.DupFlush >= d.NTFlush && d.DupFlush >= d.CleanFlush && d.DupFlush > 0:
		return "duplicate-flush"
	case d.NTFlush >= d.CleanFlush && d.NTFlush > 0:
		return "flush-after-nt-store"
	}
	return "clean-line-flush"
}

// simulate replays the journal through a fresh device and returns the
// per-site dynamic evidence plus journal-level stats. Op sites are IDs in
// tab.
func simulate(ops []pmem.Op, tab *sites.Table, poolSize uint64) (map[string]*siteDyn, report.OptStats) {
	rep := pmem.NewReplayer(poolSize)
	dyn := make(map[string]*siteDyn)
	stats := report.OptStats{JournalOps: len(ops)}

	get := func(key string) *siteDyn {
		d := dyn[key]
		if d == nil {
			d = &siteDyn{}
			dyn[key] = d
		}
		return d
	}
	keyOf := func(op pmem.Op) string { return tab.Lookup(sites.ID(op.Site)).Key() }

	for _, op := range ops {
		commits := rep.Apply(op)
		switch op.Kind {
		case pmem.OpNTStore:
			stats.NTStores++
		case pmem.OpFlush:
			stats.Flushes++
			if key := keyOf(op); key != "" {
				d := get(key)
				d.FlushOps++
				d.Uncommitted++
			}
		case pmem.OpFence:
			key := keyOf(op)
			stats.Fences++
			// ownOnly: eliding this fence site also elides everything it was
			// committing. Any foreign or NT entry means the fence did work on
			// someone else's behalf (NT stores are never elided, so an NT
			// entry breaks it even from the same source line).
			ownOnly := true
			allChangeless := true
			for ci, c := range commits {
				src := ops[c.Pos]
				if src.Kind == pmem.OpNTStore {
					ownOnly = false
					continue
				}
				site := keyOf(src)
				if site != key {
					ownOnly = false
				}
				if site != "" {
					get(site).Uncommitted--
				}
				if c.Changed {
					allChangeless = false
					continue
				}
				stats.ChangelessFlushes++
				if site == "" {
					continue
				}
				d := get(site)
				d.ChangelessFlush++
				switch {
				case priorFlushSameLine(ops, commits[:ci], c.Addr):
					d.DupFlush++
				case priorNTOverlap(ops, commits[:ci], c.Addr):
					d.NTFlush++
				default:
					d.CleanFlush++
				}
			}
			if len(commits) == 0 {
				stats.EmptyFences++
			}
			if key != "" {
				d := get(key)
				d.FenceOps++
				if len(commits) == 0 {
					d.EmptyFence++
					d.RedundantFence++
				} else if ownOnly && allChangeless {
					d.RedundantFence++
				}
			}
		}
	}
	for _, d := range dyn {
		if d.FlushOps > 0 {
			stats.FlushSites++
		}
		if d.FenceOps > 0 {
			stats.FenceSites++
		}
	}
	return dyn, stats
}

func priorFlushSameLine(ops []pmem.Op, prior []pmem.Commit, lineBase uint64) bool {
	for _, c := range prior {
		if ops[c.Pos].Kind == pmem.OpFlush && c.Addr == lineBase {
			return true
		}
	}
	return false
}

func priorNTOverlap(ops []pmem.Op, prior []pmem.Commit, lineBase uint64) bool {
	end := lineBase + pmem.LineSize
	for _, c := range prior {
		if ops[c.Pos].Kind == pmem.OpNTStore && c.Addr < end && c.Addr+c.Size > lineBase {
			return true
		}
	}
	return false
}
