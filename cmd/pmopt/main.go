// Command pmopt reports redundant flush/fence operations in a registered
// application by joining static CFG analysis (internal/pmlint/cfgir) with a
// byte-precise replay of the recorded device-op journal, and optionally
// applies the top-confidence eliminations behind a crash-differential
// safety gate.
//
// Usage:
//
//	pmopt -app P-ART                 # report candidates (text)
//	pmopt -app P-ART -json           # deterministic JSON document
//	pmopt -app P-Masstree -apply     # elide static+dynamic sites, run gates
//	pmopt -list                      # registered application names
//
// Exit status: 0 = analysis (and, with -apply, every safety gate) OK,
// 1 = a gate failed, 2 = usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"

	"hawkset/internal/apps"
	"hawkset/internal/crashinject"
	"hawkset/internal/pmopt"

	_ "hawkset/internal/apps/all"
)

func main() {
	var (
		appName = flag.String("app", "", "registered application name (see -list)")
		list    = flag.Bool("list", false, "list registered applications and exit")
		ops     = flag.Int("ops", 1000, "workload size (main-phase operations)")
		seed    = flag.Int64("seed", 42, "workload and scheduler seed")
		jsonOut = flag.Bool("json", false, "emit the report as deterministic JSON")
		apply   = flag.Bool("apply", false, "elide the static+dynamic sites and run the safety gates")
		budget  = flag.Int("budget", 32, "crash points per gate campaign with -apply")
		dir     = flag.String("dir", ".", "directory inside the module (roots the static source loader)")
	)
	flag.Parse()

	if *list {
		for _, e := range apps.All() {
			fmt.Println(e.Name)
		}
		return
	}
	if *appName == "" {
		flag.Usage()
		os.Exit(2)
	}
	entry, err := apps.Lookup(*appName)
	if err != nil {
		fatal(err)
	}

	res, err := pmopt.AnalyzeApp(*dir, entry, *ops, *seed)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		if err := res.Doc.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	} else {
		if err := res.Doc.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if !*apply {
		return
	}
	if len(res.Eliminable) == 0 {
		fmt.Fprintf(os.Stderr, "pmopt: %s has no static+dynamic site to apply\n", entry.Name)
		return
	}
	ar, err := pmopt.Apply(entry, *ops, *seed, res.Eliminable, crashinject.Config{Seed: *seed, Budget: *budget})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pmopt: elided %d site(s): flushes %d->%d, fences %d->%d, sweep %d points\n",
		len(ar.Sites), ar.BaselineFlushes, ar.OptFlushes, ar.BaselineFences, ar.OptFences, ar.SweepTested)
	if !ar.OK() {
		for _, p := range ar.Problems {
			fmt.Fprintf(os.Stderr, "pmopt: gate failed: %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "pmopt: all safety gates held")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmopt:", err)
	os.Exit(2)
}
