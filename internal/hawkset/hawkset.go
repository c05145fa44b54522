// Package hawkset implements the paper's primary contribution: PM-Aware
// Lockset Analysis for detecting persistency-induced races (HawkSet,
// EuroSys 2025, §3).
//
// A persistency-induced race (Definition 1) exists when a thread T2 loads a
// value modified by another thread T1 that is not guaranteed to be persisted
// at the time of the access. The analysis detects such races without
// observing them: it suffices that a store's *effective lockset* — the set
// of locks protecting both the store and the end of its unpersisted window
// — is disjoint from the lockset of an overlapping load by a concurrent
// thread.
//
// The pipeline follows §3.2: the Instrumentation stage is internal/pmrt
// (which produces a trace); this package replays the trace through the
// Memory Simulation, Lock Tracking and Thread Tracking components plus the
// Initialization Removal Heuristic (stage 2), and finally runs the PM-Aware
// Lockset Analysis (stage 3, Algorithm 1) with the paper's grouping and
// interning optimizations (§4).
package hawkset

import (
	"fmt"

	"hawkset/internal/lockset"
	"hawkset/internal/obs"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
	"hawkset/internal/vclock"
)

// Config selects analysis features. The zero value disables everything;
// use DefaultConfig for the paper's configuration. Every switch exists so
// the ablation benchmarks can quantify each design choice.
type Config struct {
	// IRH enables the Initialization Removal Heuristic (§3.1.3).
	IRH bool
	// EffectiveLockset computes store locksets over the full unpersisted
	// window (§3.1.2). Disabled, a store keeps the plain lockset of its
	// store instruction — the traditional analysis that misses Fig. 1c.
	EffectiveLockset bool
	// Timestamps tags lockset entries with acquisition timestamps so a
	// release+reacquire between store and persist empties the effective
	// lockset (Fig. 2d). Only meaningful with EffectiveLockset.
	Timestamps bool
	// HBFilter prunes access pairs ordered by inter-thread happens-before
	// (thread create/join vector clocks, §3.1.2).
	HBFilter bool
	// StoreStore additionally reports store-store pairs. The paper
	// deliberately does not (§3.1.1): store-store pairs cannot cause the
	// causal load-side-effect dependency of a persistency-induced race.
	// Available for experimentation only.
	StoreStore bool
	// AllocAware lets the Initialization Removal Heuristic consume the
	// allocator events of a trace captured with pmrt's InstrumentAllocs: an
	// allocation resets the covered addresses' publication state, so the
	// safe reinitialization of recycled PM is pruned like first-time
	// initialization. This is the fix for the memcached-pmem false
	// positives that §7 discusses and deliberately leaves out of the
	// original tool (it requires instrumenting non-standardized PM
	// allocators). Traces without alloc events are unaffected.
	AllocAware bool
	// Metrics, when non-nil, receives side-band observability data: a live
	// event-throughput counter, the open-store retention gauges, per-stage
	// timings (replay ①/② vs analyze ③ vs report sort, including per-shard
	// timing in the parallel path) and the record/dedup/pair counters.
	// Strictly side-band: the analysis never reads the registry, so Result,
	// reports and Stats are byte-identical with Metrics nil or set — no
	// wall-clock value ever flows into analysis output (see DESIGN.md).
	Metrics *obs.Registry
	// EADR analyzes the trace under extended-ADR semantics (§2.1): the
	// persistent domain includes the cache, so a store is persistent the
	// moment it becomes visible. No visible-but-unpersisted window exists
	// and the persistency-induced race class is empty by construction —
	// the analysis reports nothing. The switch exists as the §2.1 ablation:
	// it quantifies that every report under normal semantics is
	// persistency-induced rather than a plain data race.
	EADR bool
}

// DefaultConfig returns the configuration evaluated in the paper.
func DefaultConfig() Config {
	return Config{IRH: true, EffectiveLockset: true, Timestamps: true, HBFilter: true}
}

// EndKind says how a store's unpersisted window ended.
type EndKind uint8

// Window end kinds.
const (
	// EndNone: the store was still unpersisted when the trace ended. Its
	// window is unbounded and its effective lockset is empty: no lock can
	// protect an indefinitely-unpersisted value.
	EndNone EndKind = iota
	// EndPersist: an explicit flush of the line followed by a fence.
	EndPersist
	// EndOverwrite: a later store overwrote the value before it persisted.
	EndOverwrite
)

func (k EndKind) String() string {
	switch k {
	case EndPersist:
		return "persist"
	case EndOverwrite:
		return "overwrite"
	default:
		return "unpersisted"
	}
}

// NoVC marks an absent vector clock (unbounded window end).
const NoVC vclock.ID = -1

// StoreData is Algorithm 1's store record: one deduplicated store shape.
type StoreData struct {
	TID     int32
	Addr    uint64
	Size    uint32
	Site    sites.ID
	Eff     lockset.ID // effective lockset
	Start   vclock.ID  // vector clock at the store instruction
	End     vclock.ID  // vector clock at the window end (NoVC if unbounded)
	EndKind EndKind
	Count   uint64 // dynamic occurrences collapsed into this record
}

// LoadData is Algorithm 1's load record: one deduplicated load shape.
type LoadData struct {
	TID   int32
	Addr  uint64
	Size  uint32
	Site  sites.ID
	LS    lockset.ID
	VC    vclock.ID
	Count uint64
}

// Report is one detected persistency-induced race, deduplicated by the
// (store site, load site) pair, the way the paper's Table 2 reports races.
type Report struct {
	StoreSite  sites.ID
	LoadSite   sites.ID
	StoreFrame sites.Frame
	LoadFrame  sites.Frame
	// Addr is an example racing address.
	Addr uint64
	// StoreTID/LoadTID are the threads of one example racing pair.
	StoreTID, LoadTID int32
	// EndKind of the example store window.
	EndKind EndKind
	// Unpersisted is true when at least one contributing store window was
	// never explicitly persisted (EndNone or EndOverwrite): the signature of
	// a missing/misplaced persist, as opposed to a benign lock-free read of
	// correctly persisted data.
	Unpersisted bool
	// StoreStore marks a write-write pair (only produced under
	// Config.StoreStore; the load fields then describe the second store).
	StoreStore bool
	// Pairs is the number of (store record, load record) pairs behind this
	// report; Weight is the number of dynamic access pairs.
	Pairs  int
	Weight uint64
}

// String renders the report like the paper's bug tables.
func (r Report) String() string {
	return fmt.Sprintf("store %s / load %s (addr=%#x, T%d vs T%d, %s, pairs=%d)",
		r.StoreFrame, r.LoadFrame, r.Addr, r.StoreTID, r.LoadTID, r.EndKind, r.Pairs)
}

// Stats summarizes an analysis run.
type Stats struct {
	Events            int
	PMAccesses        int
	StoreRecords      int
	LoadRecords       int
	DynamicStores     uint64
	DynamicLoads      uint64
	IRHDroppedStores  uint64
	IRHDroppedLoads   uint64
	UnpersistedAtEnd  int
	LocksetsInterned  int
	VClocksInterned   int
	PairsChecked      uint64
	PairsHBFiltered   uint64
	PairsLockFiltered uint64
}

// Result is the output of Analyze. Stores and Loads are value slices (the
// replayer's dedup arenas handed over whole); take the address of an element
// to hold a record by pointer.
type Result struct {
	Reports []Report
	Stores  []StoreData
	Loads   []LoadData
	Stats   Stats

	Locksets *lockset.Table
	// VClocks is indexed by dense thread index (first-seen order), not by
	// TID; records and reports carry TIDs.
	VClocks *vclock.Table
	Sites   *sites.Table
}

// Analyze runs the full pipeline over a recorded trace. It is the offline
// twin of Stream: the same replay consumes the stored events. Events of an
// unknown kind are skipped, as Stream.Feed rejects them.
func Analyze(tr *trace.Trace, cfg Config) *Result {
	s := NewStream(tr.Sites, cfg)
	for e := range tr.Events() {
		s.Feed(e) //nolint:errcheck // only an unknown kind errors before Finish; it is skipped
	}
	res, _ := s.Finish() // first Finish on a fresh stream cannot fail
	return res
}
