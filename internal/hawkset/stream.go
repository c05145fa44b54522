package hawkset

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"hawkset/internal/sites"
	"hawkset/internal/trace"
)

// ErrStreamFinished is returned by Feed and Finish once Finish has run: the
// stream's state has been handed over to the Result and accepts nothing
// more. It is an ordinary error, not a panic, so a long-running server
// multiplexing many streams (internal/pmcheckd) can reject a misbehaving
// event source without dying.
var ErrStreamFinished = errors.New("hawkset: stream already finished")

// Stream is the online analysis mode: events are consumed as the
// instrumented application produces them, so no trace is retained in memory.
// This mirrors the paper's implementation detail that the Initialization
// Removal Heuristic runs alongside the Instrumentation stage (§4), and
// extends it to the whole stage-①/② pipeline; only the (far smaller)
// deduplicated access records are kept until Finish runs stage ③.
//
// Wire a Stream to a runtime with pmrt's Config.NoTrace plus an EventSink:
//
//	st := hawkset.NewStream(rt.Trace.Sites, cfg)
//	rt.EventSink = func(e trace.Event) { st.Feed(e) }
//	... run ...
//	res, err := st.Finish()
//
// Feed is not safe for concurrent use; the cooperative runtime serializes
// event emission.
type Stream struct {
	rp       *replayer
	cfg      Config
	sites    *sites.Table
	finished bool
	// replayStart is the wall-clock instant of the first Feed, recorded only
	// when metrics are enabled; it times the streaming ①/② stage. The value
	// never reaches the Result — it lands in the metrics snapshot only.
	replayStart time.Time
}

// NewStream creates an online analyzer. The site table must be the one the
// event source uses (rt.Trace.Sites), so report frames resolve.
func NewStream(st *sites.Table, cfg Config) *Stream {
	return &Stream{rp: newReplayer(cfg), cfg: cfg, sites: st}
}

// Feed consumes one event. After Finish it returns ErrStreamFinished and
// drops the event — the stream's dedup state is gone, so late events cannot
// be absorbed, but they also must not crash the process. An event of an
// unknown kind is likewise an error and leaves the stream untouched.
func (s *Stream) Feed(e trace.Event) error {
	if s.finished {
		return ErrStreamFinished
	}
	if !e.Kind.Valid() {
		return fmt.Errorf("hawkset: unknown event kind %d", e.Kind)
	}
	if s.cfg.Metrics != nil && s.replayStart.IsZero() {
		s.replayStart = time.Now()
	}
	s.rp.feed(e)
	return nil
}

// Finish closes remaining store windows, runs the PM-Aware Lockset Analysis
// and returns the result. A second call returns ErrStreamFinished.
func (s *Stream) Finish() (*Result, error) {
	if s.finished {
		return nil, ErrStreamFinished
	}
	s.finished = true
	s.rp.finish()
	if s.cfg.Metrics != nil && !s.replayStart.IsZero() {
		s.cfg.Metrics.Histogram("hawkset.stage.replay").Observe(time.Since(s.replayStart))
	}
	res := &Result{
		Stores:   s.rp.storeList,
		Loads:    s.rp.loadList,
		Stats:    s.rp.stats,
		Locksets: s.rp.ls,
		VClocks:  s.rp.vc,
		Sites:    s.sites,
	}
	res.Stats.LocksetsInterned = s.rp.ls.Len()
	res.Stats.VClocksInterned = s.rp.vc.Len()
	stopAnalyze := s.cfg.Metrics.Stage("hawkset.stage.analyze")
	analyze(res, s.cfg)
	stopAnalyze()
	stopSort := s.cfg.Metrics.Stage("hawkset.stage.report_sort")
	sortReports(res.Reports)
	stopSort()
	s.recordStats(&res.Stats, len(res.Reports))
	return res, nil
}

// recordStats mirrors the final Stats into the metrics registry, so a
// snapshot carries the record/dedup/pair counters next to the stage timings.
// Read-only with respect to the result: metrics stay side-band.
func (s *Stream) recordStats(st *Stats, reports int) {
	m := s.cfg.Metrics
	if m == nil {
		return
	}
	m.Counter("hawkset.records.stores").Add(uint64(st.StoreRecords))
	m.Counter("hawkset.records.loads").Add(uint64(st.LoadRecords))
	m.Counter("hawkset.dynamic.stores").Add(st.DynamicStores)
	m.Counter("hawkset.dynamic.loads").Add(st.DynamicLoads)
	m.Counter("hawkset.irh.dropped_stores").Add(st.IRHDroppedStores)
	m.Counter("hawkset.irh.dropped_loads").Add(st.IRHDroppedLoads)
	m.Counter("hawkset.pairs.checked").Add(st.PairsChecked)
	m.Counter("hawkset.pairs.hb_filtered").Add(st.PairsHBFiltered)
	m.Counter("hawkset.pairs.lock_filtered").Add(st.PairsLockFiltered)
	m.Counter("hawkset.reports").Add(uint64(reports))
}

// sortReports orders reports by their rendered frames. The sort keys are
// formatted once up front — recomputing Frame.String() inside the comparator
// made the sort O(n log n) string builds — and the sort is stable, so frame
// ties (e.g. a store-load and a store-store report over the same site pair)
// keep analyze's deterministic first-appearance order. Keys and reports are
// swapped together by one stable sort; no index indirection or copy-back.
func sortReports(reports []Report) {
	keys := make([]reportSortKey, len(reports))
	for i, r := range reports {
		keys[i] = reportSortKey{store: r.StoreFrame.String(), load: r.LoadFrame.String()}
	}
	sort.Stable(&reportSorter{keys: keys, reports: reports})
}

type reportSortKey struct{ store, load string }

// reportSorter sorts a report slice and its precomputed key slice in lockstep.
type reportSorter struct {
	keys    []reportSortKey
	reports []Report
}

func (s *reportSorter) Len() int { return len(s.reports) }

func (s *reportSorter) Less(i, j int) bool {
	a, b := s.keys[i], s.keys[j]
	if a.store != b.store {
		return a.store < b.store
	}
	return a.load < b.load
}

func (s *reportSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.reports[i], s.reports[j] = s.reports[j], s.reports[i]
}
