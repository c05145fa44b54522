// Package expmt regenerates every table and figure of the paper's
// evaluation (§5) from the reproduction's modules:
//
//	Table 2  — the 20 persistency-induced races across the nine applications
//	Table 3  — HawkSet vs the observation-based (PMRace-style) baseline on
//	           Fast-Fair over a seed-workload corpus
//	Figure 6 — testing time (6a) and peak memory (6b) vs workload size
//	Table 4  — report classification and Initialization Removal Heuristic
//	           effectiveness
//
// Each experiment returns structured rows plus a Format* helper that prints
// them the way the paper lays the table out.
package expmt

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"hawkset/internal/apps"
	"hawkset/internal/baseline/pmrace"
	"hawkset/internal/hawkset"
	"hawkset/internal/obs"
	"hawkset/internal/ycsb"
)

// Metrics, when non-nil, is threaded into every analysis the experiments
// run (hawkset.Config.Metrics). Side-band only: experiment rows are
// identical with or without it. It is a harness-wide knob set once by
// cmd/experiments before any experiment runs.
var Metrics *obs.Registry

// analysisConfig is the paper's configuration with the harness-wide metrics
// registry applied.
func analysisConfig() hawkset.Config {
	cfg := hawkset.DefaultConfig()
	cfg.Metrics = Metrics
	return cfg
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one bug line of Table 2.
type Table2Row struct {
	App         string
	Bug         int
	New         bool
	Durinn      bool
	StoreSites  []string
	LoadSites   []string
	Description string
	Found       bool
}

// Table2Ops is the per-application workload size for the bug-detection
// experiment. The paper uses 100k (P-ART capped at 1k); the sizes here are
// the smallest that cover every bug's trigger, keeping the experiment
// laptop-fast. Larger values only increase confidence.
var Table2Ops = map[string]int{
	"Fast-Fair":      4000,
	"TurboHash":      20000,
	"P-CLHT":         4000,
	"P-Masstree":     4000,
	"P-ART":          1000,
	"MadFS":          2000,
	"MadFS-POSIX":    3000,
	"Memcached-pmem": 4000,
	"WIPE":           4000,
	"APEX":           4000,
}

// Table2 runs HawkSet over every registered application and maps reports to
// the paper's bug list. Extension bugs (the filesystem scenarios, #21+) are
// excluded so the table reproduces exactly the paper's 20-bug accounting;
// CrashTable and the differential cover them instead.
func Table2(seed int64) ([]Table2Row, error) {
	var rows []Table2Row
	for _, e := range apps.All() {
		table2 := false
		for _, b := range e.Bugs {
			if !b.Extension {
				table2 = true
			}
		}
		if !table2 {
			continue
		}
		res, err := apps.Detect(e, Table2Ops[e.Name], seed, apps.RunConfig{Seed: seed}, analysisConfig())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		byID := map[int]*Table2Row{}
		var order []int
		for _, b := range e.Bugs {
			if b.Extension {
				continue
			}
			row, ok := byID[b.ID]
			if !ok {
				row = &Table2Row{App: e.Name, Bug: b.ID, New: b.New, Durinn: b.Durinn, Description: b.Description}
				byID[b.ID] = row
				order = append(order, b.ID)
			}
			for _, r := range res.Reports {
				if b.Matches(r) {
					row.Found = true
					row.StoreSites = appendUnique(row.StoreSites, r.StoreFrame.String())
					row.LoadSites = appendUnique(row.LoadSites, r.LoadFrame.String())
				}
			}
		}
		sort.Ints(order)
		for _, id := range order {
			rows = append(rows, *byID[id])
		}
	}
	return rows, nil
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// FormatTable2 renders rows like the paper's Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %-3s %-5s %-34s %-34s %s\n", "Application", "#", "New", "Store Access", "Load Access", "Description")
	for _, r := range rows {
		mark := "x"
		if r.New {
			mark = "Y"
		}
		if r.Durinn {
			mark = "*"
		}
		found := ""
		if !r.Found {
			found = "  [NOT FOUND]"
		}
		fmt.Fprintf(&b, "%-15s %-3d %-5s %-34s %-34s %s%s\n",
			r.App, r.Bug, mark,
			strings.Join(r.StoreSites, ","), strings.Join(r.LoadSites, ","),
			r.Description, found)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 3

// Table3Row is one tool/bug line of Table 3.
type Table3Row struct {
	Tool           string
	Bug            int
	Executions     int     // seed workloads analyzed
	Racy           int     // workloads where the bug was reported
	AvgTimePerExec float64 // seconds
	AvgTimeToRace  float64 // seconds (∞ if never found)
}

// Table3Result holds both tools' rows and the headline speedup.
type Table3Result struct {
	Rows    []Table3Row
	Speedup float64 // bug #1 expected-time ratio (PMRace / HawkSet)
}

// Table3Config parameterizes the comparison.
type Table3Config struct {
	Seeds int // corpus size (paper: 240)
	Base  int64
	// PMRace budget per seed workload.
	PMRace pmrace.Config
}

// DefaultTable3Config mirrors the paper's setup at reduced scale.
func DefaultTable3Config() Table3Config {
	return Table3Config{Seeds: 240, Base: 1000, PMRace: pmrace.DefaultConfig(0)}
}

// Table3 runs the Fast-Fair comparison: for every seed workload, one
// HawkSet execution+analysis, and one PMRace-style fuzzing campaign, then
// the paper's expected-time-to-race metric (§5.2).
func Table3(cfg Table3Config) (*Table3Result, error) {
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		return nil, err
	}
	bug1Store, bug1Load := e.Bugs[0].StoreFunc, e.Bugs[0].LoadFunc
	bug2Store, bug2Load := e.Bugs[1].StoreFunc, e.Bugs[1].LoadFunc

	seeds := ycsb.Seeds(cfg.Seeds, cfg.Base)
	var (
		hawkFound1, hawkFound2 int
		pmrFound1, pmrFound2   int
		hawkTime, pmrTime      time.Duration
	)
	for i, w := range seeds {
		// HawkSet: one execution, one analysis.
		start := time.Now()
		rt, err := apps.Run(e, w, apps.RunConfig{Seed: cfg.Base + int64(i)})
		if err != nil {
			return nil, err
		}
		res := hawkset.Analyze(rt.Trace, analysisConfig())
		hawkTime += time.Since(start)
		for _, id := range apps.FoundBugs(e, res) {
			switch id {
			case 1:
				hawkFound1++
			case 2:
				hawkFound2++
			}
		}

		// PMRace-style baseline: fuzzing campaign with delay injection.
		pcfg := cfg.PMRace
		pcfg.Seed = cfg.Base + int64(i)
		pres, err := pmrace.Detect(e, w, pcfg)
		if err != nil {
			return nil, err
		}
		pmrTime += pres.Elapsed
		if pres.MatchesBug(bug1Store, bug1Load) {
			pmrFound1++
		}
		if pres.MatchesBug(bug2Store, bug2Load) {
			pmrFound2++
		}
	}

	n := len(seeds)
	hawkPer := hawkTime.Seconds() / float64(n)
	pmrPer := pmrTime.Seconds() / float64(n)
	rows := []Table3Row{
		{Tool: "PMRace", Bug: 1, Executions: n, Racy: pmrFound1, AvgTimePerExec: pmrPer,
			AvgTimeToRace: pmrace.ExpectedTimeToRace(n-pmrFound1, pmrFound1, pmrPer)},
		{Tool: "HawkSet", Bug: 1, Executions: n, Racy: hawkFound1, AvgTimePerExec: hawkPer,
			AvgTimeToRace: pmrace.ExpectedTimeToRace(n-hawkFound1, hawkFound1, hawkPer)},
		{Tool: "PMRace", Bug: 2, Executions: n, Racy: pmrFound2, AvgTimePerExec: pmrPer,
			AvgTimeToRace: pmrace.ExpectedTimeToRace(n-pmrFound2, pmrFound2, pmrPer)},
		{Tool: "HawkSet", Bug: 2, Executions: n, Racy: hawkFound2, AvgTimePerExec: hawkPer,
			AvgTimeToRace: pmrace.ExpectedTimeToRace(n-hawkFound2, hawkFound2, hawkPer)},
	}
	return &Table3Result{
		Rows:    rows,
		Speedup: rows[0].AvgTimeToRace / rows[1].AvgTimeToRace,
	}, nil
}

// FormatTable3 renders the comparison like the paper's Table 3.
func FormatTable3(r *Table3Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-4s %-11s %-11s %-20s %s\n", "Tool", "Bug", "Executions", "Racy Exec.", "Avg Time/Exec (s)", "Avg Time to Race (s)")
	for _, row := range r.Rows {
		ttr := fmt.Sprintf("%.2f", row.AvgTimeToRace)
		if math.IsInf(row.AvgTimeToRace, 1) {
			ttr = "inf"
		}
		fmt.Fprintf(&b, "%-8s #%-3d %-11d %-11d %-20.3f %s\n",
			row.Tool, row.Bug, row.Executions, row.Racy, row.AvgTimePerExec, ttr)
	}
	fmt.Fprintf(&b, "Speedup (bug #1, expected time to race): %.1fx\n", r.Speedup)
	return b.String()
}

// ---------------------------------------------------------------- Figure 6

// Fig6Point is one (application, workload size) measurement.
type Fig6Point struct {
	App         string
	Ops         int
	TestingTime time.Duration
	// PeakRSS is the process's resident-set high-water mark (VmHWM) over
	// run+analysis, in bytes; 0 where /proc could not be read or reset,
	// which FormatFig6 prints as n/a.
	PeakRSS uint64
	Events  int
	Reports int
}

// Fig6 sweeps workload sizes across all applications, measuring the
// end-to-end testing time (instrumented execution + analysis) and the peak
// resident memory, the two metrics of Figure 6a/6b. P-ART is capped at 1k
// operations, as in the paper.
func Fig6(sizes []int, seed int64) ([]Fig6Point, error) {
	var pts []Fig6Point
	for _, e := range apps.All() {
		for _, ops := range sizes {
			if e.MaxOps > 0 && ops > e.MaxOps {
				continue
			}
			var (
				elapsed time.Duration
				res     *hawkset.Result
				err     error
			)
			peak, _ := PeakRSS(func() {
				start := time.Now()
				res, err = apps.Detect(e, ops, seed, apps.RunConfig{Seed: seed}, analysisConfig())
				elapsed = time.Since(start)
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%d: %w", e.Name, ops, err)
			}
			pts = append(pts, Fig6Point{
				App: e.Name, Ops: ops, TestingTime: elapsed,
				PeakRSS: peak, Events: res.Stats.Events, Reports: len(res.Reports),
			})
		}
	}
	return pts, nil
}

// PeakRSS runs f and returns the process's resident-set high-water mark
// (VmHWM, as benchmark/ reports peak_rss_mib) at its end, in bytes. Before
// f it returns freed heap memory to the OS and resets the mark to the
// current RSS by writing 5 to /proc/self/clear_refs, so earlier work in the
// process does not count. Where /proc cannot be reset or read it returns
// (0, false), and the caller reports n/a, never 0 bytes.
func PeakRSS(f func()) (peak uint64, ok bool) {
	debug.FreeOSMemory()
	reset := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	f()
	if reset != nil {
		return 0, false
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, found := strings.CutPrefix(line, "VmHWM:"); found {
			kib, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return 0, false
			}
			return kib << 10, true
		}
	}
	return 0, false
}

// FormatFig6 renders the sweep as the two series of Figure 6.
func FormatFig6(pts []Fig6Point) string {
	var b strings.Builder
	b.WriteString("Figure 6a — testing time / 6b — peak memory\n")
	fmt.Fprintf(&b, "%-15s %-8s %-12s %-12s %-10s %s\n", "Application", "Ops", "Time", "PeakRSS", "Events", "Reports")
	for _, p := range pts {
		peak := "n/a"
		if p.PeakRSS > 0 {
			peak = fmtBytes(p.PeakRSS)
		}
		fmt.Fprintf(&b, "%-15s %-8d %-12s %-12s %-10d %d\n",
			p.App, p.Ops, p.TestingTime.Round(time.Millisecond),
			peak, p.Events, p.Reports)
	}
	return b.String()
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// ---------------------------------------------------------------- Table 4

// Table4Row is one application line of Table 4.
type Table4Row struct {
	App string
	// Manual classification (from the per-app ground-truth registries) of
	// the reports that survive the IRH.
	MR, BR, FP int
	// AfterIRH is the report count with the heuristic on; Reported is the
	// count with it off.
	AfterIRH, Reported int
	// PrunedMalign counts malign reports the IRH removed (must be zero).
	PrunedMalign int
}

// Table4 re-runs every application with the IRH on and off and classifies
// the reports (§5.4).
func Table4(seed int64) ([]Table4Row, error) {
	var rows []Table4Row
	for _, e := range apps.All() {
		ops := Table2Ops[e.Name]
		on, err := apps.Detect(e, ops, seed, apps.RunConfig{Seed: seed}, analysisConfig())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		offCfg := analysisConfig()
		offCfg.IRH = false
		off, err := apps.Detect(e, ops, seed, apps.RunConfig{Seed: seed}, offCfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		bd := apps.Breakdown(e, on)
		row := Table4Row{
			App: e.Name,
			MR:  bd[apps.Malign], BR: bd[apps.Benign], FP: bd[apps.FalsePositive],
			AfterIRH: len(on.Reports), Reported: len(off.Reports),
		}
		onBugs := map[int]bool{}
		for _, id := range apps.FoundBugs(e, on) {
			onBugs[id] = true
		}
		for _, id := range apps.FoundBugs(e, off) {
			if !onBugs[id] {
				row.PrunedMalign++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable4 renders rows like the paper's Table 4.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %-4s %-4s %-4s %-10s %s\n", "Application", "MR", "BR", "FP", "After IRH", "Reported Races (no IRH)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %-4d %-4d %-4d %-10d %d\n", r.App, r.MR, r.BR, r.FP, r.AfterIRH, r.Reported)
		if r.PrunedMalign > 0 {
			fmt.Fprintf(&b, "  WARNING: IRH pruned %d malign races\n", r.PrunedMalign)
		}
	}
	return b.String()
}

// ------------------------------------------------------- §5.5 automation

// AutomationRow describes the per-application integration effort, the
// qualitative dimension of §5.5: which synchronization primitives the
// application uses and whether HawkSet needed a configuration beyond its
// built-in pthread support.
type AutomationRow struct {
	App string
	// Sync is the synchronization style (Table 1's column).
	Sync string
	// Primitives names the runtime primitives the reimplementation uses.
	Primitives string
	// Config describes extra integration work (the paper's configuration
	// files / wrapper functions), empty when none was needed.
	Config string
}

// Automation returns the §5.5 table. The data is structural (derived from
// each application's declared synchronization), not measured.
func Automation() []AutomationRow {
	return []AutomationRow{
		{"Fast-Fair", "Lock/Lock-Free", "Mutex + lock-free reads", ""},
		{"TurboHash", "Lock/Lock-Free", "per-bucket Mutex + lock-free reads", "custom primitives: config file (§5.5)"},
		{"P-CLHT", "Lock", "PM CAS SpinLock + RWMutex", "CAS locks: wrapper functions + config (§5.5)"},
		{"P-Masstree", "Lock/Lock-Free", "per-slot Mutex + lock-free gets", ""},
		{"P-ART", "Lock/Lock-Free", "tree Mutex + lock-free gets", "custom primitives: config file (§5.5)"},
		{"MadFS", "Lock-Free", "atomic 8-byte commits", ""},
		{"Memcached-pmem", "Lock-Free", "bucket Mutex + lock-free reads/LRU", ""},
		{"WIPE", "Lock", "per-segment Mutex + lock-free gets", ""},
		{"APEX", "Lock", "per-node Mutex (CAS in the original) + lock-free search", "CAS locks: wrapper functions + config (§5.5)"},
	}
}

// FormatAutomation renders the automation table.
func FormatAutomation(rows []AutomationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %-16s %-42s %s\n", "Application", "Sync (Table 1)", "Primitives", "Extra integration work")
	for _, r := range rows {
		cfg := r.Config
		if cfg == "" {
			cfg = "none"
		}
		fmt.Fprintf(&b, "%-15s %-16s %-42s %s\n", r.App, r.Sync, r.Primitives, cfg)
	}
	return b.String()
}
