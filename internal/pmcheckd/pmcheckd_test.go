// End-to-end tests for the ingestion daemon, extending the PR-5/PR-6
// differential discipline across the network boundary: however a stream
// reaches the daemon — clean, killed and resumed mid-segment, through
// injected network faults, or across a daemon restart — the report document
// must be byte-identical to an offline Analyze of the same trace. The test
// package is external because it renders report.Documents.
package pmcheckd_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hawkset/internal/hawkset"
	"hawkset/internal/obs"
	"hawkset/internal/pmcheckd"
	"hawkset/internal/report"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
)

// buildTrace synthesizes a deterministic multi-threaded PM trace of at
// least n events with a bounded working set: a small shared address pool
// with frequent persists, so the analysis working-set gauges stay flat no
// matter how long the trace runs — the property the bounded-RSS test pins.
func buildTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder()
	const nThreads = 4
	var addrs []uint64
	for i := 0; i < 8; i++ {
		addrs = append(addrs, 0x1000+uint64(rng.Intn(16))*64+uint64(rng.Intn(4))*8)
	}
	for t := 1; t <= nThreads; t++ {
		b.Create(0, int32(t), "main.create")
	}
	for b.T.Len() < n {
		tid := int32(1 + rng.Intn(nThreads))
		addr := addrs[rng.Intn(len(addrs))]
		lock := uint64(1 + rng.Intn(2))
		switch rng.Intn(6) {
		case 0:
			b.Store(tid, addr, 8, "store.unpersisted")
		case 1:
			b.Store(tid, addr, 8, "store.persisted")
			b.Persist(tid, addr, 8, "persist")
		case 2:
			b.Lock(tid, lock, "lock")
			b.Store(tid, addr, 8, "store.locked")
			b.Persist(tid, addr, 8, "persist.locked")
			b.Unlock(tid, lock, "unlock")
		case 3:
			b.Load(tid, addr, 8, "load")
		case 4:
			b.NTStore(tid, addr, 8, "ntstore")
			b.Fence(tid, "fence")
		default:
			b.Lock(tid, lock, "lock")
			b.Load(tid, addr, 8, "load.locked")
			b.Unlock(tid, lock, "unlock")
		}
	}
	for t := 1; t <= nThreads; t++ {
		b.Join(0, int32(t), "main.join")
	}
	return b.T
}

// offlineDoc renders the ground-truth document: offline Analyze + report.
func offlineDoc(t *testing.T, tr *trace.Trace, app, workload string) []byte {
	t.Helper()
	res := hawkset.Analyze(tr, hawkset.DefaultConfig())
	var buf bytes.Buffer
	if err := report.New(res, app, workload, nil).WriteJSON(&buf); err != nil {
		t.Fatalf("offline WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// testServer is a daemon on a loopback listener with automatic drain.
type testServer struct {
	srv     *pmcheckd.Server
	addr    string
	done    chan error
	stopped bool
}

func startServer(t *testing.T, dir string, mod func(*pmcheckd.Config)) *testServer {
	t.Helper()
	cfg := pmcheckd.Config{Dir: dir, Logf: t.Logf}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := pmcheckd.NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ts := &testServer{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { ts.done <- srv.Serve(ln) }()
	t.Cleanup(func() { ts.stop(t) })
	return ts
}

// stop drains and asserts both Drain and Serve exited cleanly. Idempotent:
// the Cleanup-registered stop is a no-op after an explicit mid-test stop.
func (ts *testServer) stop(t *testing.T) {
	t.Helper()
	if ts.stopped {
		return
	}
	ts.stopped = true
	if err := ts.srv.Drain(); err != nil {
		t.Errorf("Drain: %v", err)
	}
	select {
	case err := <-ts.done:
		if err != nil {
			t.Errorf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("Serve did not return after Drain")
	}
}

// streamTrace drives a whole trace through a client and returns the daemon
// document.
func streamTrace(t *testing.T, tr *trace.Trace, cfg pmcheckd.ClientConfig) []byte {
	t.Helper()
	c, err := pmcheckd.NewClient(tr.Sites, cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()
	for e := range tr.Events() {
		c.Feed(e)
	}
	doc, err := c.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return doc
}

func clientCfg(addr, tenant string) pmcheckd.ClientConfig {
	return pmcheckd.ClientConfig{
		Addr:          addr,
		Tenant:        tenant,
		App:           "synthetic",
		Workload:      "buildTrace",
		SegmentEvents: 512,
		BackoffBase:   time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
	}
}

// TestDaemonDifferential: a cleanly streamed trace produces the offline
// document byte-for-byte, and a later client for the same tenant fetches
// the identical document (idempotent finish).
func TestDaemonDifferential(t *testing.T) {
	tr := buildTrace(1, 20000)
	want := offlineDoc(t, tr, "synthetic", "buildTrace")
	ts := startServer(t, t.TempDir(), nil)

	got := streamTrace(t, tr, clientCfg(ts.addr, "diff"))
	if !bytes.Equal(want, got) {
		t.Fatalf("daemon document differs from offline analysis:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	// A fresh client (no local state at all) fetching the finished stream.
	c, err := pmcheckd.NewClient(sites.NewTable(), clientCfg(ts.addr, "diff"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	again, err := c.Finish()
	if err != nil {
		t.Fatalf("re-Finish: %v", err)
	}
	if !bytes.Equal(want, again) {
		t.Fatal("fetch-after-finish returned a different document")
	}
}

// cutConn injects a hard connection kill after a byte budget: the write
// that crosses the budget is truncated mid-frame and the socket closed —
// the server sees a torn segment on a dead connection.
type cutConn struct {
	net.Conn
	remaining int
	chunkRead bool // deliver reads in tiny chunks (slow-reader injection)
}

func (c *cutConn) Write(p []byte) (int, error) {
	if c.remaining <= 0 {
		c.Conn.Close()
		return 0, errors.New("injected: connection killed")
	}
	if len(p) > c.remaining {
		n, _ := c.Conn.Write(p[:c.remaining])
		c.remaining = 0
		c.Conn.Close()
		return n, errors.New("injected: connection killed mid-frame")
	}
	n, err := c.Conn.Write(p)
	c.remaining -= n
	return n, err
}

func (c *cutConn) Read(p []byte) (int, error) {
	if c.chunkRead && len(p) > 3 {
		p = p[:3]
	}
	return c.Conn.Read(p)
}

// TestKillAndResumeMidSegment: the connection dies mid-segment several
// times; the client reconnects, resumes from the acked sequence number, and
// the final document is still byte-identical.
func TestKillAndResumeMidSegment(t *testing.T) {
	tr := buildTrace(2, 20000)
	want := offlineDoc(t, tr, "synthetic", "buildTrace")
	ts := startServer(t, t.TempDir(), nil)

	// Byte budgets chosen to cut inside segment frames (a 512-event segment
	// encodes to a few KiB); the last connection is unlimited.
	budgets := []int{2000, 5000, 9000, 1 << 30}
	dials := 0
	cfg := clientCfg(ts.addr, "killresume")
	cfg.Logf = t.Logf
	cfg.Dial = func() (net.Conn, error) {
		c, err := net.Dial("tcp", ts.addr)
		if err != nil {
			return nil, err
		}
		b := budgets[min(dials, len(budgets)-1)]
		dials++
		return &cutConn{Conn: c, remaining: b}, nil
	}
	got := streamTrace(t, tr, cfg)
	if dials < len(budgets) {
		t.Fatalf("fault injection never engaged: %d dials", dials)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("kill-and-resume document differs from offline analysis")
	}
}

// TestInjectedNetworkFaults: randomized dial failures, mid-frame cuts and
// chunked (slow) reads, deterministic by seed. The differential must hold
// regardless.
func TestInjectedNetworkFaults(t *testing.T) {
	tr := buildTrace(3, 20000)
	want := offlineDoc(t, tr, "synthetic", "buildTrace")
	ts := startServer(t, t.TempDir(), nil)

	rng := rand.New(rand.NewSource(7))
	faults := 0
	cfg := clientCfg(ts.addr, "netfaults")
	cfg.Logf = t.Logf
	cfg.MaxAttempts = 50
	cfg.Dial = func() (net.Conn, error) {
		if rng.Intn(4) == 0 {
			faults++
			return nil, errors.New("injected: dial refused")
		}
		c, err := net.Dial("tcp", ts.addr)
		if err != nil {
			return nil, err
		}
		// Every connection dies eventually; budgets stay above one segment
		// so each connection makes durable progress — the retry counter
		// resets on progress, which is what keeps the client from giving
		// up under sustained (but non-total) loss.
		faults++
		return &cutConn{
			Conn:      c,
			remaining: 8192 + rng.Intn(32768),
			chunkRead: rng.Intn(2) == 0,
		}, nil
	}
	got := streamTrace(t, tr, cfg)
	if faults == 0 {
		t.Fatal("fault injection never engaged")
	}
	if !bytes.Equal(want, got) {
		t.Fatal("network-fault document differs from offline analysis")
	}
}

// TestServerRestartRecovery: the daemon is drained mid-stream (only part of
// the trace ingested), its store tail is corrupted with garbage, a second
// daemon recovers from the same directory, and the same client object
// (which never learned about any of this beyond a dropped connection)
// finishes the stream against the new daemon. The document must equal the
// uninterrupted offline analysis, proving acked-means-durable end to end.
func TestServerRestartRecovery(t *testing.T) {
	tr := buildTrace(4, 20000)
	want := offlineDoc(t, tr, "synthetic", "buildTrace")
	dir := t.TempDir()

	srv1, err := pmcheckd.NewServer(pmcheckd.Config{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done1 := make(chan error, 1)
	go func() { done1 <- srv1.Serve(ln1) }()

	var addr atomic.Value
	addr.Store(ln1.Addr().String())
	cfg := clientCfg("", "restart")
	cfg.Logf = t.Logf
	cfg.MaxAttempts = 100
	cfg.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr.Load().(string)) }
	c, err := pmcheckd.NewClient(tr.Sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	events := slices.Collect(tr.Events())
	half := len(events) / 2
	for _, e := range events[:half] {
		c.Feed(e)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("first half: %v", err)
	}

	// Hard stop the first daemon and corrupt the store tail: everything
	// acked survives; the garbage must be truncated by recovery.
	if err := srv1.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-done1; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	logPath := dir + "/restart.seglog"
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 200, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ts2 := startServer(t, dir, nil)
	addr.Store(ts2.addr)

	for _, e := range events[half:] {
		c.Feed(e)
	}
	got, err := c.Finish()
	if err != nil {
		t.Fatalf("Finish after restart: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("restart-recovery document differs from offline analysis")
	}

	// And a third daemon regenerates the identical report from the log
	// alone — no client involved.
	ts2.stop(t)
	ts3 := startServer(t, dir, nil)
	c3, err := pmcheckd.NewClient(sites.NewTable(), clientCfg(ts3.addr, "restart"))
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	regen, err := c3.Finish()
	if err != nil {
		t.Fatalf("regenerated Finish: %v", err)
	}
	if !bytes.Equal(want, regen) {
		t.Fatal("report regenerated from the log differs")
	}
}

// TestBudgetIsolation: a tenant that exceeds its event budget is rejected
// with a terminal error while a concurrent, in-budget tenant on the same
// daemon completes with a correct document.
func TestBudgetIsolation(t *testing.T) {
	small := buildTrace(5, 4000)
	big := buildTrace(6, 20000)
	want := offlineDoc(t, small, "synthetic", "buildTrace")
	ts := startServer(t, t.TempDir(), func(c *pmcheckd.Config) {
		c.MaxEventsPerTenant = 10000
	})

	over, err := pmcheckd.NewClient(big.Sites, clientCfg(ts.addr, "over-budget"))
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	for e := range big.Events() {
		over.Feed(e)
	}
	if _, err := over.Finish(); err == nil {
		t.Fatal("over-budget tenant finished without error")
	} else if !errors.Is(over.Err(), err) {
		t.Fatalf("Err() = %v, Finish error = %v", over.Err(), err)
	}

	got := streamTrace(t, small, clientCfg(ts.addr, "in-budget"))
	if !bytes.Equal(want, got) {
		t.Fatal("in-budget tenant's document perturbed by the rejected tenant")
	}
}

// TestManyTenantsBounded: concurrent tenant streams (8 x 100k events, or a
// scaled-down version under -short) all hold the differential, and every
// tenant's analysis working-set gauges stay bounded — flat high-water marks
// independent of stream length, the bounded-RSS acceptance instrument.
func TestManyTenantsBounded(t *testing.T) {
	tenants, events := 8, 100000
	if testing.Short() {
		tenants, events = 4, 10000
	}
	metrics := obs.NewRegistry()
	ts := startServer(t, t.TempDir(), func(c *pmcheckd.Config) {
		c.Metrics = metrics
		c.Logf = nil // too chatty at this scale
	})

	var wg sync.WaitGroup
	errc := make(chan error, tenants)
	lens := make([]uint64, tenants) // exact event count per tenant (>= events)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := buildTrace(int64(100+i), events)
			lens[i] = uint64(tr.Len())
			want := offlineDoc(t, tr, "synthetic", "buildTrace")
			c, err := pmcheckd.NewClient(tr.Sites, clientCfg(ts.addr, fmt.Sprintf("tenant-%d", i)))
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for e := range tr.Events() {
				c.Feed(e)
			}
			doc, err := c.Finish()
			if err != nil {
				errc <- fmt.Errorf("tenant-%d: %w", i, err)
				return
			}
			if !bytes.Equal(want, doc) {
				errc <- fmt.Errorf("tenant-%d: document differs from offline analysis", i)
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	var total uint64
	for i, n := range lens {
		total += n
		name := fmt.Sprintf("tenant-%d", i)
		snap := ts.srv.TenantSnapshot(name)
		if snap == nil {
			t.Fatalf("no snapshot for %s", name)
		}
		if got := snap.Counter("pmcheckd.tenant.events"); got != n {
			t.Errorf("%s: ingested %d events, want %d", name, got, n)
		}
		// The synthetic workload touches <=128 addresses on <=32 lines with
		// frequent persists: a leak-free replayer's working set is tiny and
		// independent of the 100k-event stream length.
		if hw := snap.GaugeMax("hawkset.replay.open_stores"); hw <= 0 || hw > 1024 {
			t.Errorf("%s: open_stores high-water %d not bounded", name, hw)
		}
		if hw := snap.GaugeMax("hawkset.replay.lines"); hw <= 0 || hw > 1024 {
			t.Errorf("%s: lines high-water %d not bounded", name, hw)
		}
	}
	snap := metrics.Snapshot()
	if got := snap.Counter("pmcheckd.events"); got != total {
		t.Errorf("daemon ingested %d events total, want %d", got, total)
	}
}

// TestDrainCheckpoint: segments received before a drain survive it — the
// next daemon process resumes the tenant exactly at the acked position with
// nothing lost and nothing duplicated.
func TestDrainCheckpoint(t *testing.T) {
	tr := buildTrace(8, 8000)
	dir := t.TempDir()
	ts := startServer(t, dir, nil)

	cfg := clientCfg(ts.addr, "checkpoint")
	c, err := pmcheckd.NewClient(tr.Sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	events := slices.Collect(tr.Events())
	half := len(events) / 2
	for _, e := range events[:half] {
		c.Feed(e)
	}
	// Sync is the checkpoint barrier: after it, every flushed segment is
	// durable in the daemon's log; only the sub-segment buffered remainder
	// is still client-side.
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	ts.stop(t)

	ts2 := startServer(t, dir, nil)
	c2, err := pmcheckd.NewClient(sites.NewTable(), clientCfg(ts2.addr, "checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Connect(); err != nil {
		t.Fatalf("reconnect to recovered daemon: %v", err)
	}
	snap := ts2.srv.TenantSnapshot("checkpoint")
	if snap == nil {
		t.Fatal("checkpointed tenant not recovered")
	}
	// Everything Sync confirmed durable was replayed by the second daemon;
	// the unflushed client remainder (buffered, below one segment) was not.
	want := uint64(half/512) * 512
	if acked := snap.Counter("pmcheckd.tenant.events"); acked != want {
		t.Fatalf("recovered %d events, want %d (the synced whole segments)", acked, want)
	}
}
