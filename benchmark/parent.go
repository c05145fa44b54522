package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"time"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/trace"
	"hawkset/internal/ycsb"
)

// childTimeout bounds one cycle; the longest takes about 2.5 s.
const childTimeout = 90 * time.Second

// childProcs is the children's GOMAXPROCS. The cooperative scheduler hands
// control between goroutines on every PM access; with two Ps on a 2-vCPU VM
// each handoff can wake the other vCPU, which made cycles 10–25% slower and
// the spread between runs up to three times wider than with one.
const childProcs = 1

// config sets one benchmark run.
type config struct {
	seed      int64
	seconds   time.Duration // run untraced cycles for at least this long...
	minCycles int           // ...and at least this many
	traced    int           // traced cycles per workload after the untraced ones
	ops       int           // main-phase operations; 0 uses each workload's size
	traceDir  string        // where a traced run writes spans and a CPU profile; "" for nowhere
}

// workloadResult is one workload's entry in the results ledger.
type workloadResult struct {
	Name      string          `json:"name"`
	Ops       int             `json:"ops"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Failures  []string        `json:"failures,omitempty"`
	EndToEnd  map[string]stat `json:"end_to_end"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
}

func runBench(ctx context.Context, cfg config, ws []*workload) ([]*workloadResult, error) {
	if cfg.traceDir != "" {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	var out []*workloadResult
	for _, w := range ws {
		r, err := runWorkload(ctx, cfg, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// runWorkload runs the workload as a closed loop with one client: one fresh
// child process per cycle, never two at once.
func runWorkload(ctx context.Context, cfg config, w *workload) (*workloadResult, error) {
	ops := w.ops
	if cfg.ops > 0 {
		ops = cfg.ops
	}
	dir, err := os.MkdirTemp("", "hawkset-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p, err := prepare(w, dir, cfg.seed, ops)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory() // the parent holds nothing while children run

	r := &workloadResult{Name: w.name, Ops: ops}
	req := childReq{Workload: w.name, Seed: cfg.seed, Ops: ops, Input: p.input, Dir: dir, Cycle: 1}
	want := p.sha
	// gate runs one cycle through the correctness gate; nil is a failure.
	gate := func(req childReq) *childResult {
		r.Attempted++
		res, err := spawn(ctx, req)
		if err == nil {
			if want == "" {
				want = res.SHA256
			}
			err = w.verify(res, want, cfg.seed, ops)
		}
		if err != nil {
			r.Failed++
			r.Failures = append(r.Failures, fmt.Sprintf("cycle %d: %v", req.Cycle, err))
			return nil
		}
		return res
	}

	samples := map[string][]float64{}
	start := time.Now()
	for ; req.Cycle <= cfg.minCycles || time.Since(start) < cfg.seconds; req.Cycle++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if res := gate(req); res != nil {
			samples["cycle_s"] = append(samples["cycle_s"], res.CycleS)
			samples["cpu_s"] = append(samples["cpu_s"], res.CPUS)
			samples["peak_rss_mib"] = append(samples["peak_rss_mib"], res.PeakRSSMiB)
			samples["setup_s"] = append(samples["setup_s"], res.setupS)
		}
	}
	r.EndToEnd = summarize(endToEnd, samples)
	if cfg.traced == 0 {
		return r, nil
	}

	layers := map[string][]float64{}
	var spans []*span
	req.Traced = true
	for end := req.Cycle + cfg.traced; req.Cycle < end; req.Cycle++ {
		res := gate(req)
		if res == nil {
			continue
		}
		res.Layers["trace.capture_s"] = p.captureS
		res.Layers["bench.trace_overhead_ratio"] = ratio(res.CycleS, r.EndToEnd["cycle_s"].Median)
		for _, m := range perLayer {
			layers[m.name] = append(layers[m.name], res.Layers[m.name])
		}
		spans = append(spans, res.Spans...)
	}
	r.PerLayer = summarize(perLayer, layers)
	if cfg.traceDir == "" {
		return r, nil
	}
	b, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.traceDir, w.name+".spans.json"), b, 0o644); err != nil {
		return nil, err
	}
	// The profile comes from one more untraced cycle, so profiling costs
	// nothing in the traced cycles' numbers.
	req.Traced = false
	req.Profile = filepath.Join(cfg.traceDir, w.name+".cpu.pprof")
	gate(req)
	return r, nil
}

// prepared is what the parent sets up once per run, outside the timing.
type prepared struct {
	input    string  // trace file the reanalyze cycles decode
	sha      string  // sha256 every cycle's report must have; "" takes the first cycle's
	captureS float64 // wall time of the one-time capture
}

// prepare captures reanalyze-memcached's input, and computes the reference
// report of the cross-mode checks: the in-process Analyze of that capture,
// and for stream-pmasstree the offline Analyze of the same run.
func prepare(w *workload, dir string, seed int64, ops int) (prepared, error) {
	var p prepared
	if w.mode != reanalyze && w.mode != online {
		return p, nil
	}
	e, err := apps.Lookup(w.app)
	if err != nil {
		return p, err
	}
	start := time.Now()
	rt, err := apps.Run(e, ycsb.Generate(e.Spec(ops), seed), apps.RunConfig{Seed: seed})
	if err != nil {
		return p, fmt.Errorf("run %s: %w", e.Name, err)
	}
	if w.mode == reanalyze {
		p.input = filepath.Join(dir, "capture.hwkt")
		if _, err := writeTrace(p.input, rt.Trace, trace.Options{}); err != nil {
			return p, err
		}
		p.captureS = time.Since(start).Seconds()
	}
	doc, err := renderReport(e, hawkset.Analyze(rt.Trace, hawkset.DefaultConfig()), ops, seed)
	if err != nil {
		return p, err
	}
	p.sha = digest(doc)
	return p, nil
}

// spawn runs one cycle in a fresh child process, this same executable, and
// measures setup_s from just before the process starts to the child starting
// its cycle.
func spawn(ctx context.Context, req childReq) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(b), fmt.Sprintf("GOMAXPROCS=%d", childProcs))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	res.setupS = float64(res.ReadyNS-start.UnixNano()) / 1e9
	return &res, nil
}
