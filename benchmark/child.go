package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/obs"
	"hawkset/internal/pmrt"
	"hawkset/internal/report"
	"hawkset/internal/trace"
	"hawkset/internal/ycsb"
)

// childEnv carries a cycle request from the parent to the process it
// starts; a process that finds it set runs that one cycle and exits.
const childEnv = "HAWKSET_BENCH_CHILD"

type childReq struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"ops"`
	Input    string `json:"input,omitempty"` // captured trace a reanalyze cycle decodes
	Dir      string `json:"dir"`             // scratch directory for files the cycle writes
	Cycle    int    `json:"cycle"`
	Traced   bool   `json:"traced"`
	Profile  string `json:"profile,omitempty"` // write a CPU profile of the cycle here
}

type childResult struct {
	ReadyNS    int64              `json:"ready_ns"` // Unix time the cycle started
	CycleS     float64            `json:"cycle_s"`
	CPUS       float64            `json:"cpu_s"`
	PeakRSSMiB float64            `json:"peak_rss_mib"`
	SHA256     string             `json:"sha256"` // of the report document
	Reports    int                `json:"reports"`
	Bugs       []int              `json:"bugs"` // Table 2 bugs the reports match
	Layers     map[string]float64 `json:"layers,omitempty"`
	Spans      []*span            `json:"spans,omitempty"`

	setupS float64 // filled in by the parent
}

func childMain(reqJSON string) int {
	var req childReq
	err := json.Unmarshal([]byte(reqJSON), &req)
	var res *childResult
	if err == nil {
		res, err = runCycle(req)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

// cycle is one child's state: the input set up before the cycle starts,
// and what a traced cycle records while it runs.
type cycle struct {
	req   childReq
	w     *workload
	entry *apps.Entry
	cfg   hawkset.Config

	wl         *ycsb.Workload // generated input; nil for reanalyze
	in         *os.File       // captured trace, for reanalyze
	rt         *pmrt.Runtime  // the cycle's runtime; nil for reanalyze
	traceBytes int64          // size of the trace file written or read

	tr  *tracer // nil when untraced
	reg *obs.Registry
}

func runCycle(req childReq) (*childResult, error) {
	w, err := lookup(req.Workload)
	if err != nil {
		return nil, err
	}
	entry, err := apps.Lookup(w.app)
	if err != nil {
		return nil, err
	}
	c := &cycle{req: req, w: w, entry: entry, cfg: hawkset.DefaultConfig()}
	if req.Traced {
		c.tr = &tracer{cycle: req.Cycle}
		c.reg = obs.NewRegistry()
		c.cfg.Metrics = c.reg
	}

	setup := c.tr.begin("setup", nil)
	if w.mode == reanalyze {
		if c.in, err = os.Open(req.Input); err != nil {
			return nil, err
		}
		defer c.in.Close()
		fi, err := c.in.Stat()
		if err != nil {
			return nil, err
		}
		c.traceBytes = fi.Size()
	} else {
		sp := c.tr.begin("ycsb.generate", setup)
		c.wl = ycsb.Generate(entry.Spec(req.Ops), req.Seed)
		sp.end()
	}
	setup.end()

	if req.Profile != "" {
		f, err := os.Create(req.Profile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}

	var ru0, ru1 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return nil, err
	}
	go0 := readGoMetrics()
	start := time.Now()
	root := c.tr.begin("cycle", nil)
	res, err := c.analyze(root)
	if err != nil {
		return nil, err
	}
	sp := c.tr.begin("report.render", root)
	doc, err := renderReport(entry, res, req.Ops, req.Seed)
	sp.end()
	root.end()
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	go1 := readGoMetrics()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return nil, err
	}
	peak, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	out := &childResult{
		ReadyNS:    start.UnixNano(),
		CycleS:     elapsed.Seconds(),
		CPUS:       cpuSeconds(&ru1) - cpuSeconds(&ru0),
		PeakRSSMiB: peak,
		SHA256:     digest(doc),
		Reports:    len(res.Reports),
		Bugs:       apps.FoundBugs(entry, res),
	}
	if c.tr != nil {
		out.Layers = c.layers(res, len(doc), go0, go1)
		out.Spans = c.tr.spans
	}
	return out, nil
}

// analyze runs the workload's pipeline up to the analysis result.
func (c *cycle) analyze(root *span) (*hawkset.Result, error) {
	switch c.w.mode {
	case reanalyze:
		return c.replayFile(root)
	case online:
		return c.runOnline(root)
	}
	sp := c.tr.begin("pmrt.run", root)
	rt, err := apps.Run(c.entry, c.wl, apps.RunConfig{Seed: c.req.Seed, Metrics: c.reg})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", c.entry.Name, err)
	}
	c.rt = rt
	if c.w.mode == capture {
		sp := c.tr.begin("trace.encode", root)
		c.traceBytes, err = writeTrace(filepath.Join(c.req.Dir, "capture.hwkt"), rt.Trace,
			trace.Options{Version: 2, Compress: true})
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	sp = c.tr.begin("hawkset.analyze", root)
	res := hawkset.Analyze(rt.Trace, c.cfg)
	sp.end()
	return res, nil
}

// runOnline streams the run's events into the analysis as they are emitted.
func (c *cycle) runOnline(root *span) (*hawkset.Result, error) {
	c.rt = apps.NewRuntime(c.entry, apps.RunConfig{Seed: c.req.Seed, NoTrace: true, Metrics: c.reg})
	st := hawkset.NewStream(c.rt.Trace.Sites, c.cfg)
	run := c.tr.begin("pmrt.run", root)
	feed := c.tr.aggregate("hawkset.feed", run)
	var feedErr error
	c.rt.EventSink = func(e trace.Event) {
		t := feed.start()
		err := st.Feed(e)
		feed.stop(t)
		if err != nil && feedErr == nil {
			feedErr = err
		}
	}
	err := apps.RunOn(c.rt, c.entry.Factory(c.rt, false), c.wl)
	feed.end()
	run.end()
	if err = errors.Join(err, feedErr); err != nil {
		return nil, fmt.Errorf("run %s: %w", c.entry.Name, err)
	}
	return c.finish(root, st)
}

// replayFile decodes the captured trace event by event into the analysis.
func (c *cycle) replayFile(root *span) (*hawkset.Result, error) {
	dec := c.tr.aggregate("trace.decode", root)
	feed := c.tr.aggregate("hawkset.feed", root)
	t := dec.start()
	d, err := trace.NewDecoder(c.in)
	dec.stop(t)
	if err != nil {
		return nil, fmt.Errorf("decode %s: %w", c.req.Input, err)
	}
	st := hawkset.NewStream(d.Sites(), c.cfg)
	for {
		t := dec.start()
		e, err := d.Next()
		dec.stop(t)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", c.req.Input, err)
		}
		t = feed.start()
		err = st.Feed(e)
		feed.stop(t)
		if err != nil {
			return nil, err
		}
	}
	dec.end()
	feed.end()
	return c.finish(root, st)
}

func (c *cycle) finish(root *span, st *hawkset.Stream) (*hawkset.Result, error) {
	sp := c.tr.begin("hawkset.finish", root)
	defer sp.end()
	return st.Finish()
}

// layers computes a traced cycle's per-layer metrics from its spans, the
// obs registry the pipeline recorded into, and the result's Stats.
func (c *cycle) layers(res *hawkset.Result, reportBytes int, go0, go1 goMetrics) map[string]float64 {
	snap := c.reg.Snapshot()
	st := res.Stats
	m := map[string]float64{
		"ycsb.generate_s":             c.tr.seconds("ycsb.generate"),
		"pmrt.run_s":                  c.tr.seconds("pmrt.run"),
		"pmrt.run_self_s":             c.tr.selfSeconds("pmrt.run"),
		"pmrt.events":                 float64(snap.Counter("pmrt.events")),
		"pmem.stores":                 float64(snap.Counter("pmem.stores")),
		"pmem.flushes":                float64(snap.Counter("pmem.flushes")),
		"pmem.fences":                 float64(snap.Counter("pmem.fences")),
		"trace.encode_s":              c.tr.seconds("trace.encode"),
		"trace.decode_s":              c.tr.seconds("trace.decode"),
		"trace.bytes":                 float64(c.traceBytes),
		"trace.bytes_per_event":       ratio(float64(c.traceBytes), float64(st.Events)),
		"hawkset.replay_s":            c.tr.seconds("hawkset.feed"),
		"hawkset.dedup_ratio":         ratio(float64(st.DynamicStores+st.DynamicLoads), float64(st.StoreRecords+st.LoadRecords)),
		"hawkset.analyze_s":           float64(duration(snap, "hawkset.stage.analyze").TotalNS) / 1e9,
		"hawkset.analyze_shard_max_s": float64(duration(snap, "hawkset.stage.analyze_shard").MaxNS) / 1e9,
		"hawkset.pairs_checked":       float64(st.PairsChecked),
		"hawkset.pairs_race_ratio":    ratio(float64(st.PairsChecked-st.PairsHBFiltered-st.PairsLockFiltered), float64(st.PairsChecked)),
		"hawkset.store_records":       float64(st.StoreRecords),
		"hawkset.load_records":        float64(st.LoadRecords),
		"hawkset.open_stores_hwm":     float64(snap.GaugeMax("hawkset.replay.open_stores")),
		"hawkset.reports":             float64(len(res.Reports)),
		"report.render_s":             c.tr.seconds("report.render"),
		"report.bytes":                float64(reportBytes),
		"go.alloc_mib":                (go1.allocBytes - go0.allocBytes) / (1 << 20),
		"go.gc_cycles":                go1.gcCycles - go0.gcCycles,
		"go.gc_cpu_s":                 go1.gcCPUSeconds - go0.gcCPUSeconds,
	}
	m["pmrt.ns_per_event"] = ratio(m["pmrt.run_self_s"]*1e9, m["pmrt.events"])
	if c.w.mode == detect || c.w.mode == capture {
		// Analyze feeds its stream internally; its replay stage timer is the
		// only view of the time spent there.
		m["hawkset.replay_s"] = float64(duration(snap, "hawkset.stage.replay").TotalNS) / 1e9
	}
	if c.wl != nil {
		m["ycsb.ops"] = float64(len(c.wl.Load) + c.wl.TotalOps())
	}
	if c.rt != nil {
		m["sched.steps"] = float64(c.rt.Sched.Steps())
		m["sites.frames"] = float64(c.rt.Trace.Sites.Len())
	}
	return m
}

func duration(s *obs.Snapshot, name string) obs.DurationSnap {
	for _, d := range s.Durations {
		if d.Name == name {
			return d
		}
	}
	return obs.DurationSnap{}
}

// renderReport renders the JSON report document of a result: the bytes the
// correctness gate hashes.
func renderReport(e *apps.Entry, res *hawkset.Result, ops int, seed int64) ([]byte, error) {
	classify := func(r hawkset.Report) string { return e.Classify(r).String() }
	doc := report.New(res, e.Name, fmt.Sprintf("ycsb ops=%d seed=%d", ops, seed), classify)
	var b bytes.Buffer
	if err := doc.WriteJSON(&b); err != nil {
		return nil, fmt.Errorf("render report: %w", err)
	}
	return b.Bytes(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// writeTrace encodes tr to a new file at path and returns the file's size.
func writeTrace(path string, tr *trace.Trace, o trace.Options) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := trace.EncodeWith(f, tr, o); err != nil {
		f.Close()
		return 0, fmt.Errorf("encode trace: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return fi.Size(), f.Close()
}

type goMetrics struct{ allocBytes, gcCycles, gcCPUSeconds float64 }

func readGoMetrics() goMetrics {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goMetrics{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), s[2].Value.Float64()}
}

func cpuSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMiB reads the process's resident-set high-water mark, VmHWM.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
