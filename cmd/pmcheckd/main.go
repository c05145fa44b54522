// Command pmcheckd runs the trace-ingestion daemon: a long-running service
// that accepts concurrent trace streams from instrumented application
// instances (pmcheck -remote, or any internal/pmcheckd client), analyzes
// each stream online with HawkSet's PM-Aware Lockset Analysis, and persists
// every segment to a crash-safe per-tenant log so clients resume across
// disconnects and the daemon resumes across restarts.
//
// Usage:
//
//	pmcheckd -listen 127.0.0.1:7099 -dir /var/tmp/pmcheckd
//	pmcheckd -listen unix:/tmp/pmcheckd.sock -max-events 2000000
//
// SIGTERM or SIGINT drains gracefully: accepting stops, every received
// segment is applied and durable, metrics are flushed, and the process
// exits 0 with every stream either finished (report produced) or
// checkpointed (resumable by the next daemon process from the same -dir).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hawkset/internal/obs"
	"hawkset/internal/obscli"
	"hawkset/internal/pmcheckd"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7099", "listen address: host:port or unix:/path/to.sock")
		dir        = flag.String("dir", "pmcheckd-store", "segment-store directory (per-tenant durable logs)")
		maxEvents  = flag.Uint64("max-events", 0, "per-tenant event budget (0 = unlimited)")
		queueDepth = flag.Int("queue", 8, "per-tenant credit window (segments in flight)")
		maxTenants = flag.Int("max-tenants", 64, "maximum concurrently known tenants")
		tenantTab  = flag.Bool("tenant-table", false, "print a per-tenant metrics table to stderr at exit")
		quiet      = flag.Bool("quiet", false, "suppress operational log lines")
	)
	var obsFlags obscli.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()
	if err := obsFlags.StartPprof(); err != nil {
		fatal(err)
	}
	metrics := obsFlags.Registry()
	if metrics == nil {
		// The daemon always keeps its own counters: the drain summary and
		// -tenant-table read them even when no -metrics output is requested.
		metrics = obs.NewRegistry()
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "pmcheckd: "+format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	srv, err := pmcheckd.NewServer(pmcheckd.Config{
		Dir:                *dir,
		MaxEventsPerTenant: *maxEvents,
		QueueDepth:         *queueDepth,
		MaxTenants:         *maxTenants,
		Metrics:            metrics,
		Logf:               logf,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := listenAddr(*listen)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pmcheckd: listening on %s (store %s)\n", *listen, *dir)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	drainErr := make(chan error, 1)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "pmcheckd: %s: draining\n", sig)
		drainErr <- srv.Drain()
	}()

	if err := srv.Serve(ln); err != nil {
		fatal(err)
	}
	// Serve returned nil: Drain closed the listener. Wait for the drain to
	// finish applying every durable segment before reporting and exiting.
	if err := <-drainErr; err != nil {
		fatal(err)
	}

	if *tenantTab {
		printTenantTable(srv)
	}
	if err := obsFlags.Dump(metrics); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "pmcheckd: drained cleanly")
}

// listenAddr opens the daemon listener: "unix:/path" for a unix socket
// (removing a stale socket file from a previous run), anything else TCP.
func listenAddr(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		if _, err := os.Stat(path); err == nil {
			// A previous daemon left its socket behind; a live daemon would
			// still be listening, so probe before unlinking.
			if c, err := net.Dial("unix", path); err == nil {
				c.Close()
				return nil, fmt.Errorf("pmcheckd: %s: already in use", path)
			}
			os.Remove(path) //nolint:errcheck // Listen will report any real problem
		}
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", addr)
}

// printTenantTable renders one line per tenant with its ingest counters and
// the high-water marks of the analysis working-set gauges — the bounded-RSS
// instrument.
func printTenantTable(srv *pmcheckd.Server) {
	names := srv.TenantNames()
	if len(names) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%-24s %12s %12s %12s %14s %12s %14s %14s %14s\n",
		"TENANT", "SEGMENTS", "EVENTS", "DUPS", "OPEN-STORES", "LINES", "WINDOW-RECS", "TABLE-BYTES", "RECORD-BYTES")
	for _, name := range names {
		snap := srv.TenantSnapshot(name)
		if snap == nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "%-24s %12d %12d %12d %14d %12d %14d %14d %14d\n",
			name,
			snap.Counter("pmcheckd.tenant.segments"),
			snap.Counter("pmcheckd.tenant.events"),
			snap.Counter("pmcheckd.tenant.dup_segments"),
			snap.GaugeMax("hawkset.replay.open_stores"),
			snap.GaugeMax("hawkset.replay.lines"),
			snap.GaugeMax("hawkset.replay.window_records"),
			snap.GaugeMax("hawkset.replay.table_bytes"),
			snap.GaugeMax("hawkset.replay.record_bytes"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmcheckd:", err)
	os.Exit(101)
}
