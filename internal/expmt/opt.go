package expmt

import (
	"fmt"
	"strings"
	"time"

	"hawkset/internal/apps"
	"hawkset/internal/crashinject"
	"hawkset/internal/pmopt"
	"hawkset/internal/report"
)

// OptRow is one application's line of the flush/fence-optimization table:
// what pmopt found, and — when the eliminations were applied — how much
// device work disappeared and whether the safety gates held.
type OptRow struct {
	App string
	// Journal shape of the analyzed recording.
	Flushes int
	Fences  int
	// Candidate counts by confidence tier.
	StaticDynamic int
	DynamicOnly   int
	StaticOnly    int
	Refuted       int
	// Apply outcome (zero-valued when the config did not apply, or the app
	// had no top-tier sites).
	Applied        bool
	SitesElided    int
	FlushReduction uint64
	FenceReduction uint64
	GatesOK        bool
	SweepTested    int
	Problems       []string
	Elapsed        time.Duration
}

// OptTableConfig parameterizes the optimization sweep.
type OptTableConfig struct {
	Seed int64
	// Ops overrides the per-application workload size (0 = Table2Ops).
	Ops int
	// Dir roots the static loader; it must lie inside the module ("."
	// works when running from anywhere in the repo).
	Dir string
	// Apply elides each app's static+dynamic sites and runs the safety
	// gates; without it the table is analysis-only.
	Apply bool
	// Budget/Deadline bound each gate campaign (crashinject semantics).
	Budget   int
	Deadline time.Duration
	// Apps restricts the sweep to the named applications (empty = all).
	Apps []string
}

// DefaultOptTableConfig analyzes every app and applies with a modest
// campaign budget.
func DefaultOptTableConfig() OptTableConfig {
	return OptTableConfig{Seed: 42, Dir: ".", Apply: true, Budget: 24}
}

// OptTable runs pmopt over the registered applications.
func OptTable(cfg OptTableConfig) ([]OptRow, error) {
	if cfg.Dir == "" {
		cfg.Dir = "."
	}
	want := make(map[string]bool, len(cfg.Apps))
	for _, n := range cfg.Apps {
		want[n] = true
	}
	var rows []OptRow
	for _, e := range apps.All() {
		if len(want) > 0 && !want[e.Name] {
			continue
		}
		start := time.Now()
		ops := cfg.Ops
		if ops == 0 {
			ops = Table2Ops[e.Name]
		}
		res, err := pmopt.AnalyzeApp(cfg.Dir, e, ops, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		row := OptRow{
			App:     e.Name,
			Flushes: res.Doc.Stats.Flushes,
			Fences:  res.Doc.Stats.Fences,
		}
		for _, c := range res.Doc.Candidates {
			switch c.Tier {
			case report.TierStaticDynamic:
				row.StaticDynamic++
			case report.TierDynamicOnly:
				row.DynamicOnly++
			default:
				row.StaticOnly++
			}
			if c.Refuted {
				row.Refuted++
			}
		}
		if cfg.Apply && len(res.Eliminable) > 0 {
			ar, err := pmopt.Apply(res.Prep, ops, cfg.Seed, res.Eliminable, crashinject.Config{
				Seed: cfg.Seed, Budget: cfg.Budget, Deadline: cfg.Deadline,
			})
			if err != nil {
				return nil, fmt.Errorf("%s apply: %w", e.Name, err)
			}
			row.Applied = true
			row.SitesElided = len(ar.Sites)
			row.FlushReduction = ar.FlushReduction()
			row.FenceReduction = ar.FenceReduction()
			row.GatesOK = ar.OK()
			row.SweepTested = ar.SweepTested
			row.Problems = ar.Problems
		}
		row.Elapsed = time.Since(start)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatOptTable renders the sweep.
func FormatOptTable(rows []OptRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %-8s %-8s %-7s %-7s %-7s %-8s %-8s %-9s %-9s %-7s %s\n",
		"Application", "Flushes", "Fences", "S+D", "DynOnly", "Static", "Refuted", "Elided", "Flush(-)", "Fence(-)", "Gates", "Time")
	for _, r := range rows {
		gates := "-"
		if r.Applied {
			if r.GatesOK {
				gates = "ok"
			} else {
				gates = "FAIL"
			}
		}
		fmt.Fprintf(&b, "%-15s %-8d %-8d %-7d %-7d %-7d %-8d %-8d %-9d %-9d %-7s %s\n",
			r.App, r.Flushes, r.Fences, r.StaticDynamic, r.DynamicOnly, r.StaticOnly,
			r.Refuted, r.SitesElided, r.FlushReduction, r.FenceReduction, gates,
			r.Elapsed.Round(time.Millisecond))
		for _, p := range r.Problems {
			fmt.Fprintf(&b, "    ! %s\n", p)
		}
	}
	return b.String()
}
