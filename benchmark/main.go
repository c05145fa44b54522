// Command benchmark measures the paper's Fig. 6 workflow on this
// reproduction — workload generation, instrumented execution, trace IO,
// replay, analysis and report — end to end and layer by layer, on four
// workloads that stress different layers. README.md describes the
// workloads, every metric and how to read the output.
//
//	go run . [-workload NAME] [-seed 42] [-seconds 15] [-trace 0|1] [-trace-dir DIR] [-out FILE]
//	go run . -compare a.json b.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the medians of the end-to-end metrics, or of the per-layer
// metrics with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

func main() {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// ledger is the results file -out writes and -compare reads.
type ledger struct {
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"` // of the children
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Workloads  []*workloadResult `json:"workloads"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 42, "workload and schedule seed; 7 is held out for validating claims")
	seconds := fs.Float64("seconds", 15, "run untraced cycles of each workload for at least this many seconds")
	traceFlag := fs.Int("trace", 0, "1 adds three traced cycles per workload and reports the per-layer metrics")
	traceDir := fs.String("trace-dir", "", "with -trace 1, write each workload's spans and a CPU profile here")
	out := fs.String("out", "", "write the results ledger to this JSON file")
	cmp := fs.Bool("compare", false, "compare two ledgers: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two ledger files")
			return 2
		}
		worse, err := compare(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if worse {
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0 or 1")
		return 2
	}

	ws := workloads
	if *name != "" {
		w, err := lookup(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		ws = []*workload{w}
	}
	cfg := config{
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		minCycles: 3,
		traced:    3 * *traceFlag,
	}
	if cfg.traced > 0 {
		cfg.traceDir = *traceDir
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results, err := runBench(ctx, cfg, ws)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	for _, r := range results {
		printResult(stdout, r)
	}
	if *out != "" {
		if err := writeLedger(*out, cfg, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	line := summary(results, cfg.traced > 0)
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

func printResult(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "%s (%d ops): %d cycles, %d failed\n", r.Name, r.Ops, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	rows := func(defs []metric, stats map[string]stat) {
		for _, m := range defs {
			s := stats[m.name]
			fmt.Fprintf(w, "  %-28s %14.6g %-5s p25 %-12.6g p75 %-12.6g n=%d\n", m.name, s.Median, m.unit, s.P25, s.P75, s.N)
		}
	}
	rows(endToEnd, r.EndToEnd)
	if r.PerLayer != nil {
		rows(perLayer, r.PerLayer)
	}
}

type summaryLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line: medians of the end-to-end metrics, or of the
// per-layer ones for a traced run. With several workloads each name is
// prefixed by "workload/".
func summary(results []*workloadResult, traced bool) summaryLine {
	s := summaryLine{Metrics: map[string]value{}}
	for _, r := range results {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		defs, stats := endToEnd, r.EndToEnd
		if traced {
			defs, stats = perLayer, r.PerLayer
		}
		for _, m := range defs {
			key := m.name
			if len(results) > 1 {
				key = r.Name + "/" + m.name
			}
			s.Metrics[key] = value{stats[m.name].Median, m.unit}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	return s
}

func writeLedger(path string, cfg config, results []*workloadResult) error {
	l := ledger{
		Seed:       cfg.seed,
		Seconds:    cfg.seconds.Seconds(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: childProcs,
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Workloads:  results,
	}
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit is the VCS revision the binary was built from, as `go build`
// stamps it, with "+modified" when the tree had uncommitted changes.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			modified = "+modified"
		}
	}
	return rev + modified
}
