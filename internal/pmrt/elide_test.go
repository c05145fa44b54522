package pmrt

import (
	"bytes"
	"slices"
	"testing"

	"hawkset/internal/obs"
	"hawkset/internal/pmem"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
)

// elideWorkload is a tiny program with a provably redundant second flush of
// the same clean line: store, flush, flush again (distinct call line), fence.
func elideWorkload(c *Ctx) {
	a := c.Alloc(64)
	c.Store8(a, 0xfeedface)
	c.Flush(a)
	c.Flush(a) // redundant: same line, no intervening store
	c.Fence()
	c.NTStore8(a+8, 7)
	c.Fence()
}

// TestJournalDeviceCounters pins the device's per-op-kind counters
// (pmem.flushes / pmem.fences / pmem.ntstores) against the journal itself,
// looked up through an obs snapshot: under RecordOps every device flush,
// fence and NT store is journaled.
func TestJournalDeviceCounters(t *testing.T) {
	reg := obs.NewRegistry()
	rt := New(Config{Seed: 3, PoolSize: 1 << 14, RecordOps: true, Metrics: reg})
	if err := rt.Run(elideWorkload); err != nil {
		t.Fatal(err)
	}
	var flushes, fences, nts uint64
	for _, op := range rt.Ops {
		switch op.Kind {
		case pmem.OpFlush:
			flushes++
		case pmem.OpFence:
			fences++
		case pmem.OpNTStore:
			nts++
		}
	}
	if flushes == 0 || fences == 0 || nts == 0 {
		t.Fatalf("workload exercised no flush/fence/ntstore: %d/%d/%d", flushes, fences, nts)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("pmem.flushes"); got != flushes {
		t.Errorf("pmem.flushes = %d, journal has %d flushes", got, flushes)
	}
	if got := snap.Counter("pmem.fences"); got != fences {
		t.Errorf("pmem.fences = %d, journal has %d fences", got, fences)
	}
	if got := snap.Counter("pmem.ntstores"); got != nts {
		t.Errorf("pmem.ntstores = %d, journal has %d NT stores", got, nts)
	}
}

// TestOpSitesAligned checks every journal entry carries its call site:
// traced ops resolve to real frames, and Zero's untraced store is the one
// legitimate site-0 entry.
func TestOpSitesAligned(t *testing.T) {
	rt := New(Config{Seed: 5, PoolSize: 1 << 14, RecordOps: true})
	err := rt.Run(func(c *Ctx) {
		a := c.Alloc(64)
		c.Zero(a, 64)
		c.Store8(a, 1)
		c.Persist(a, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range rt.Ops {
		site := sites.ID(op.Site)
		if op.Seq == -1 {
			if site != 0 {
				t.Errorf("untraced op %d carries site %d, want 0", i, site)
			}
			continue
		}
		if site == 0 {
			t.Errorf("traced op %d (kind %v) has no site", i, op.Kind)
			continue
		}
		if fr := rt.Trace.Sites.Lookup(site); fr.File == "" {
			t.Errorf("op %d site %d resolves to empty frame", i, site)
		}
	}
}

// TestElideSites checks the elision contract: with the redundant flush's
// site elided, (a) the persistent image is unchanged, (b) the trace equals
// the baseline trace with exactly the elided events removed (the
// yield-preserving guarantee), and (c) the pmem.flushes counter drops.
func TestElideSites(t *testing.T) {
	base := New(Config{Seed: 11, PoolSize: 1 << 14, RecordOps: true})
	if err := base.Run(elideWorkload); err != nil {
		t.Fatal(err)
	}
	// Locate the redundant flush (second OpFlush) and build its elide key.
	var key string
	nflush := 0
	for _, op := range base.Ops {
		if op.Kind == pmem.OpFlush {
			nflush++
			if nflush == 2 {
				key = base.Trace.Sites.Lookup(sites.ID(op.Site)).Key()
			}
		}
	}
	if key == "" {
		t.Fatal("workload journaled fewer than two flushes")
	}

	regE := obs.NewRegistry()
	elided := New(Config{Seed: 11, PoolSize: 1 << 14, RecordOps: true,
		ElideSites: map[string]bool{key: true}, Metrics: regE})
	if err := elided.Run(elideWorkload); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(base.Pool.Crash(), elided.Pool.Crash()) {
		t.Error("eliding the redundant flush changed the persistent image")
	}
	// The elided trace must be the baseline trace minus flush events at the
	// elided site, with everything else in the same order.
	var want []trace.Event
	for e := range base.Trace.Events() {
		if e.Kind == trace.KFlush && base.Trace.Sites.Lookup(e.Site).Key() == key {
			continue
		}
		want = append(want, e)
	}
	if len(want) != elided.Trace.Len() {
		t.Fatalf("elided trace has %d events, want %d", elided.Trace.Len(), len(want))
	}
	for i, e := range slices.Collect(elided.Trace.Events()) {
		w := want[i]
		// Site IDs are interning-order-dependent; compare resolved frames.
		if e.Kind != w.Kind || e.TID != w.TID || e.Addr != w.Addr || e.Size != w.Size ||
			elided.Trace.Sites.Lookup(e.Site) != base.Trace.Sites.Lookup(w.Site) {
			t.Fatalf("event %d diverges: got %+v want %+v", i, e, w)
		}
	}
	snap := regE.Snapshot()
	if got := snap.Counter("pmrt.elided"); got == 0 {
		t.Error("pmrt.elided counter did not move")
	}
	if got, wantN := snap.Counter("pmem.flushes"), uint64(nflush-1); got != wantN {
		t.Errorf("pmem.flushes = %d after elision, want %d", got, wantN)
	}
}
