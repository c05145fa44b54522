// Command pmcheck runs a workload against an application and validates the
// crash image — the post-crash consistency check (in the spirit of PMRace's
// second stage) that turns HawkSet's race reports into demonstrated bugs.
// With -inject it additionally runs the crash-point fault-injection
// campaign (internal/crashinject): the recorded execution is replayed to
// every selected crash point, and each materialized crash image is
// validated and driven through the application's recovery path.
//
// Usage:
//
//	pmcheck -app Fast-Fair -ops 4000            # buggy variant: violations
//	pmcheck -app Fast-Fair -ops 4000 -fixed     # control: clean image
//	pmcheck -all                                # every app with a validator
//	pmcheck -app Fast-Fair -inject              # + targeted crash campaign
//	pmcheck -all -inject -strategy fence -json  # machine-readable output
//
// With -remote, pmcheck instead streams the instrumented execution's trace
// events to a pmcheckd daemon (see cmd/pmcheckd) and prints the race report
// the daemon produced — the fleet-ingestion client path. -verify
// additionally retains the trace locally, runs the offline analysis, and
// fails unless the daemon's document is byte-identical:
//
//	pmcheck -remote 127.0.0.1:7099 -app Fast-Fair -ops 4000
//	pmcheck -remote unix:/tmp/pmcheckd.sock -app WIPE -verify
//
// Exit status: 0 when every checked application is consistent (or, with
// -remote, when streaming and -verify succeeded); otherwise the number of
// failing applications (capped at 100). Usage and runtime errors exit 101.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"hawkset/internal/apps"
	"hawkset/internal/crashinject"
	"hawkset/internal/hawkset"
	"hawkset/internal/obs"
	"hawkset/internal/obscli"
	"hawkset/internal/pmcheckd"
	"hawkset/internal/report"

	_ "hawkset/internal/apps/all"
)

func main() {
	var (
		appName  = flag.String("app", "Fast-Fair", "application to check")
		ops      = flag.Int("ops", 4000, "main-phase operations")
		seed     = flag.Int64("seed", 42, "workload and schedule seed")
		fixed    = flag.Bool("fixed", false, "run the defect-free variant")
		all      = flag.Bool("all", false, "check every application that implements crash validation")
		maxShow  = flag.Int("show", 10, "violations to print per application")
		inject   = flag.Bool("inject", false, "run the crash-point fault-injection campaign")
		strategy = flag.String("strategy", "targeted", "crash-point strategy: fence, flush, store or targeted")
		budget   = flag.Int("budget", 0, "crash points tested per campaign (0 = default, negative = unlimited)")
		deadline = flag.Duration("deadline", 0, "wall-clock bound per campaign (0 = none)")
		jsonOut  = flag.Bool("json", false, "emit a machine-readable JSON document")
		progress = flag.Bool("progress", false, "print a periodic campaign progress line to stderr")
		remote   = flag.String("remote", "", "stream trace events to this pmcheckd address (host:port or unix:/path) instead of crash-checking")
		tenant   = flag.String("tenant", "", "tenant name for -remote (default: derived from app and seed)")
		verify   = flag.Bool("verify", false, "with -remote: also analyze offline and require a byte-identical report")
		compress = flag.Bool("compress", false, "with -remote: flate-compress segment payloads on the wire")
	)
	var obsFlags obscli.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()
	if err := obsFlags.StartPprof(); err != nil {
		fatal(err)
	}
	metrics := obsFlags.Registry()

	if *remote != "" {
		if err := runRemote(*remote, *tenant, *appName, *ops, *seed, *fixed, *verify, *compress, *jsonOut, metrics); err != nil {
			fatal(err)
		}
		if err := obsFlags.Dump(metrics); err != nil {
			fatal(err)
		}
		return
	}

	strat, err := crashinject.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}

	entries := apps.All()
	if !*all {
		e, err := apps.Lookup(*appName)
		if err != nil {
			fatal(err)
		}
		entries = []*apps.Entry{e}
	}

	stratName := ""
	if *inject {
		stratName = strat.String()
	}
	campCfg := crashinject.Config{
		Strategy: strat, Budget: *budget, Deadline: *deadline, Seed: *seed,
		Metrics: metrics,
	}
	if *progress {
		campCfg.OnProgress = printProgress
	}
	doc := report.NewCrashDocument(stratName)
	for _, e := range entries {
		c, err := checkOne(e, *ops, *seed, *fixed, *inject, metrics, campCfg)
		if err != nil {
			if *all {
				doc.Checks = append(doc.Checks, report.CrashCheck{
					Application: e.Name, Fixed: *fixed, Skipped: err.Error(),
				})
				continue
			}
			fatal(err)
		}
		doc.Checks = append(doc.Checks, *c)
	}

	if *jsonOut {
		err = doc.WriteJSON(os.Stdout)
	} else {
		err = doc.WriteText(os.Stdout, *maxShow)
	}
	if err != nil {
		fatal(err)
	}
	if err := obsFlags.Dump(metrics); err != nil {
		fatal(err)
	}
	failed := doc.FailedApps()
	if failed > 100 {
		failed = 100
	}
	os.Exit(failed)
}

// printProgress renders one campaign progress sample as a stderr status
// line. Progress is presentation-only; nothing here reaches the document.
func printProgress(p crashinject.Progress) {
	eta := ""
	if p.ETA > 0 {
		eta = fmt.Sprintf(", eta %s", p.ETA.Round(time.Second))
	}
	state := "..."
	if p.Done {
		state = "done"
	}
	fmt.Fprintf(os.Stderr, "pmcheck: %s %s campaign %s %d/%d points (%d failed, %.1f pts/s%s)\n",
		p.Target, p.Strategy, state, p.Tested, p.Selected, p.Failed, p.PointsPerSec, eta)
}

// checkOne validates one application: the end-of-run crash image always,
// plus the fault-injection campaign when requested.
func checkOne(e *apps.Entry, ops int, seed int64, fixed, inject bool, metrics *obs.Registry, cfg crashinject.Config) (*report.CrashCheck, error) {
	violations, err := apps.RunAndValidate(e, ops, seed, apps.RunConfig{Seed: seed, Fixed: fixed, Metrics: metrics})
	if err != nil {
		return nil, fmt.Errorf("no crash validator: %w", err)
	}
	c := &report.CrashCheck{
		Application: e.Name, Fixed: fixed,
		Violations: violations,
		Failed:     len(violations) > 0,
	}
	if !inject {
		return c, nil
	}
	prep, err := crashinject.Prepare(e, ops, seed, fixed)
	if err != nil {
		return nil, err
	}
	camp, err := crashinject.RunCampaign(prep.Target(0), cfg)
	if err != nil {
		return nil, err
	}
	c.Campaign = camp
	if camp.Failed > 0 {
		c.Failed = true
	}
	return c, nil
}

// runRemote executes one instrumented run with its trace streamed live to a
// pmcheckd daemon (the fleet-client path): every event goes through the
// network EventSink, the daemon analyzes at ingest, and the final report
// document comes back over the same connection. With verify the trace is
// additionally retained locally and analyzed offline; the two documents
// must be byte-identical — the end-to-end form of the differential
// invariant the pmcheckd tests enforce.
func runRemote(addr, tenant, appName string, ops int, seed int64, fixed, verify, compress, jsonOut bool, metrics *obs.Registry) error {
	entry, err := apps.Lookup(appName)
	if err != nil {
		return err
	}
	w := entry.Workload(ops, seed)
	workload := fmt.Sprintf("ycsb ops=%d seed=%d", ops, seed)
	if tenant == "" {
		tenant = fmt.Sprintf("%s-seed%d", entry.Name, seed)
	}

	// Without -verify the trace is not retained at all: the daemon is the
	// only consumer, which is the memory-bounded fleet configuration.
	rt := apps.NewRuntime(entry, apps.RunConfig{Seed: seed, Fixed: fixed, NoTrace: !verify, Metrics: metrics})
	client, err := pmcheckd.NewClient(rt.Trace.Sites, pmcheckd.ClientConfig{
		Addr:     addr,
		Tenant:   tenant,
		App:      entry.Name,
		Workload: workload,
		Compress: compress,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "pmcheck: remote: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	if err := client.Connect(); err != nil {
		return err
	}
	rt.EventSink = client.Feed
	app := entry.Factory(rt, fixed)
	if err := apps.RunOn(rt, app, w); err != nil {
		return err
	}
	doc, err := client.Finish()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pmcheck: daemon report for tenant %s: %d bytes\n", tenant, len(doc))

	if verify {
		res := hawkset.Analyze(rt.Trace, hawkset.DefaultConfig())
		var local bytes.Buffer
		if err := report.New(res, entry.Name, workload, nil).WriteJSON(&local); err != nil {
			return err
		}
		if !bytes.Equal(doc, local.Bytes()) {
			return fmt.Errorf("daemon report differs from offline analysis (%d vs %d bytes)", len(doc), local.Len())
		}
		fmt.Fprintln(os.Stderr, "pmcheck: verified: daemon report byte-identical to offline analysis")
	}
	if jsonOut {
		if _, err := os.Stdout.Write(doc); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmcheck:", err)
	os.Exit(101)
}
