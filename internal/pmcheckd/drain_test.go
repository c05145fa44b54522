package pmcheckd

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hawkset/internal/hawkset"
	"hawkset/internal/report"
	"hawkset/internal/trace"
)

// lingerListener hands out connections whose first Close is deferred: the
// socket really closes at the second call. Drain and the connection's
// reader both close it, so whatever the reader writes on its way out
// reaches the client, whichever of the two closes first.
type lingerListener struct {
	net.Listener
	closed chan struct{} // closed when a connection really closes
}

type lingerConn struct {
	net.Conn
	ln    *lingerListener
	calls atomic.Int32
}

func (l *lingerListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &lingerConn{Conn: c, ln: l}, nil
}

func (c *lingerConn) Close() error {
	if c.calls.Add(1) != 2 {
		return nil
	}
	defer close(c.ln.closed)
	return c.Conn.Close()
}

// TestDrainLooksLikeDisconnect: a segment that reaches the daemon while
// Drain runs must not be answered with an error frame, which the client
// would take as terminal. The tenant worker is stalled and its queue full,
// so the connection's reader can only take the drain path; the client then
// resumes against a restarted daemon, and Finish returns the offline
// report.
func TestDrainLooksLikeDisconnect(t *testing.T) {
	b := trace.NewBuilder()
	b.Create(0, 1, "main.create")
	b.Create(0, 2, "main.create")
	for i := range 60 {
		tid := int32(1 + i%2)
		addr := 0x1000 + uint64(i%5)*64
		b.Store(tid, addr, 8, "store")
		if i%3 == 0 {
			b.Persist(tid, addr, 8, "persist")
		}
		b.Load(3-tid, addr, 8, "load")
	}
	b.Join(0, 1, "main.join")
	b.Join(0, 2, "main.join")
	tr := b.T
	var want bytes.Buffer
	if err := report.New(hawkset.Analyze(tr, hawkset.DefaultConfig()), "synthetic", "drain", nil).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	var events []trace.Event
	for e := range tr.Events() {
		events = append(events, e)
	}
	const segEvents = 40
	if len(events) < 3*segEvents {
		t.Fatalf("trace has %d events, want at least %d", len(events), 3*segEvents)
	}

	dir := t.TempDir()
	srv1, err := NewServer(Config{Dir: dir, QueueDepth: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1 := &lingerListener{Listener: tcp, closed: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- srv1.Serve(ln1) }()

	var addr atomic.Value
	addr.Store(tcp.Addr().String())
	c, err := NewClient(tr.Sites, ClientConfig{
		Tenant: "drain", App: "synthetic", Workload: "drain",
		SegmentEvents: segEvents, MaxAttempts: 100,
		BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
		Dial: func() (net.Conn, error) { return net.Dial("tcp", addr.Load().(string)) },
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, e := range events[:segEvents] {
		c.Feed(e)
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("first segment: %v", err)
	}

	// Stall the worker: it takes an item whose reply goes to a pipe nobody
	// reads yet. Once a byte of that reply arrives, the worker is blocked
	// in it, and a second item fills the one-slot queue.
	srv1.mu.Lock()
	tn := srv1.tenants["drain"]
	srv1.mu.Unlock()
	pipeSrv, pipeTest := net.Pipe()
	stalled := &serverConn{c: pipeSrv, bw: bufio.NewWriter(pipeSrv)}
	tn.queue <- tenantItem{kind: recFinish, seq: 1 << 40, conn: stalled}
	if _, err := io.ReadFull(pipeTest, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	tn.queue <- tenantItem{kind: recSegment, seq: 1, conn: stalled} // a duplicate: acked, not applied

	// The client still holds the credit its first ack returned, so its
	// second segment goes out; the reader finds the queue full.
	for _, e := range events[segEvents : 2*segEvents] {
		c.Feed(e)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("second segment: %v", err)
	}
	drained := make(chan error, 1)
	go func() { drained <- srv1.Drain() }()
	<-ln1.closed // the reader has left; a drain error frame would be sent by now
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		io.Copy(io.Discard, pipeTest) //nolint:errcheck // unblocks the stalled worker
	}()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	pipeTest.Close()
	wg.Wait()

	srv2, err := NewServer(Config{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln2) //nolint:errcheck // Drain below ends it
	defer srv2.Drain() //nolint:errcheck // end of test
	addr.Store(ln2.Addr().String())

	for _, e := range events[2*segEvents:] {
		c.Feed(e)
	}
	got, err := c.Finish()
	if err != nil {
		t.Fatalf("Finish after the drain and restart: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("report after the drain and restart differs from the offline analysis")
	}
}
