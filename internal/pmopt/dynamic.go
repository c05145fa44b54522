package pmopt

// Dynamic redundancy analysis over the recorded device-op journal. The
// simulator mirrors pmem's worst-case persistency model (store → volatile,
// flush → whole-line snapshot pending, fence → commit pending in order) and
// asks, at every fence, which committed snapshots actually changed the
// persistent image. A flush whose snapshot is byte-identical to what the
// persistent view already held at commit time did no work; a fence whose
// batch holds only such snapshots from its own site did none either. The
// verdict is per occurrence — a site is eliminable only when every one of
// its journaled ops was a no-op and none of its snapshots was left
// uncommitted at run end.

import (
	"bytes"
	"fmt"

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

// pendEntry is one queued snapshot: a flush's whole-line copy or an NT
// store's payload, waiting for the issuing thread's next fence.
type pendEntry struct {
	site string // issuing site key ("" for untraced ops)
	nt   bool
	addr uint64
	data []byte
}

// simulate replays the journal against volatile/persistent shadows and
// returns the per-site dynamic evidence plus journal-level stats. opSites
// must be the runtime's 1:1 site side table for ops.
func simulate(ops []pmem.Op, opSites []sites.ID, tab *sites.Table, poolSize uint64) (map[string]*siteDyn, report.OptStats) {
	vol := make([]byte, poolSize)
	per := make([]byte, poolSize)
	pending := make(map[int32][]pendEntry)
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
	keyOf := func(i int) string {
		fr := tab.Lookup(opSites[i])
		if fr.File == "" {
			return ""
		}
		return fmt.Sprintf("%s:%d", sites.ModuleRel(fr.File), fr.Line)
	}

	for i, op := range ops {
		switch op.Kind {
		case pmem.OpStore, pmem.OpNTStore:
			data := op.Data
			if data == nil {
				data = make([]byte, op.Size)
			}
			copy(vol[op.Addr:], data)
			if op.Kind == pmem.OpNTStore {
				stats.NTStores++
				snap := append([]byte(nil), data...)
				pending[op.TID] = append(pending[op.TID], pendEntry{site: keyOf(i), nt: true, addr: op.Addr, data: snap})
			}
		case pmem.OpFlush:
			stats.Flushes++
			key := keyOf(i)
			if key != "" {
				get(key).FlushOps++
			}
			base := pmem.LineOf(op.Addr) * pmem.LineSize
			end := base + pmem.LineSize
			if end > poolSize {
				end = poolSize
			}
			snap := append([]byte(nil), vol[base:end]...)
			pending[op.TID] = append(pending[op.TID], pendEntry{site: key, addr: base, data: snap})
		case pmem.OpFence:
			key := keyOf(i)
			stats.Fences++
			batch := pending[op.TID]
			delete(pending, op.TID)
			// ownOnly: eliding this fence site also elides everything it was
			// committing. Any foreign or NT entry means the fence did work on
			// someone else's behalf (NT stores are never elided, so an NT
			// entry breaks it even from the same source line).
			ownOnly := true
			allChangeless := true
			for bi, e := range batch {
				if e.nt || e.site != key {
					ownOnly = false
				}
				changeless := bytes.Equal(per[e.addr:e.addr+uint64(len(e.data))], e.data)
				copy(per[e.addr:], e.data)
				if e.nt {
					continue
				}
				if !changeless {
					allChangeless = false
					continue
				}
				stats.ChangelessFlushes++
				if e.site == "" {
					continue
				}
				d := get(e.site)
				d.ChangelessFlush++
				switch {
				case priorFlushSameLine(batch[:bi], e.addr):
					d.DupFlush++
				case priorNTOverlap(batch[:bi], e.addr):
					d.NTFlush++
				default:
					d.CleanFlush++
				}
			}
			if key != "" {
				d := get(key)
				d.FenceOps++
				if len(batch) == 0 {
					stats.EmptyFences++
					d.EmptyFence++
					d.RedundantFence++
				} else if ownOnly && allChangeless {
					d.RedundantFence++
				}
			} else if len(batch) == 0 {
				stats.EmptyFences++
			}
		}
	}
	// Snapshots never committed: their site's effect is unresolved.
	for _, batch := range pending {
		for _, e := range batch {
			if !e.nt && e.site != "" {
				get(e.site).Uncommitted++
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

func priorFlushSameLine(prior []pendEntry, lineBase uint64) bool {
	for _, e := range prior {
		if !e.nt && e.addr == lineBase {
			return true
		}
	}
	return false
}

func priorNTOverlap(prior []pendEntry, lineBase uint64) bool {
	end := lineBase + pmem.LineSize
	for _, e := range prior {
		if e.nt && e.addr < end && e.addr+uint64(len(e.data)) > lineBase {
			return true
		}
	}
	return false
}
