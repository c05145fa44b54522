package pmcheckd

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"hawkset/internal/obs"
	"hawkset/internal/trace"
)

// Config configures a daemon instance.
type Config struct {
	// Dir is the segment-store root: one append-only log per tenant. It is
	// created if missing; existing logs are recovered (replayed, torn
	// tails truncated) before the server accepts connections.
	Dir string
	// MaxEventsPerTenant is the per-tenant event budget (0 = unlimited).
	// A stream that exceeds it gets ErrBudgetExceeded and is terminally
	// rejected; the daemon and the other tenants are unaffected.
	MaxEventsPerTenant uint64
	// QueueDepth is the per-tenant bounded queue — the credit window: at
	// most this many segments are in flight (received, not yet applied)
	// per tenant, which bounds ingest RSS per tenant regardless of client
	// behavior. Default 8.
	QueueDepth int
	// MaxTenants bounds concurrently known tenants (0 = 64).
	MaxTenants int
	// Metrics, when non-nil, receives daemon-level counters
	// (pmcheckd.conns, pmcheckd.segments, ...). Per-tenant registries are
	// separate; see TenantSnapshots.
	Metrics *obs.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Server is the ingestion daemon. Create with NewServer, run with Serve,
// stop with Drain.
type Server struct {
	cfg Config

	mu      sync.Mutex
	tenants map[string]*tenant
	conns   map[*serverConn]struct{}
	ln      net.Listener
	drained bool

	draining chan struct{}
	connWG   sync.WaitGroup
	workerWG sync.WaitGroup

	mConns        *obs.Counter
	mSegments     *obs.Counter
	mEvents       *obs.Counter
	mFinished     *obs.Counter
	mTenantErrors *obs.Counter
	gTenants      *obs.Gauge
}

// NewServer prepares a daemon: it creates the store directory if needed and
// recovers every existing tenant log — replaying the durable segments
// through a fresh analysis stream and truncating torn tails — so that
// clients of a previous (possibly crashed) daemon process resume exactly
// where their last acknowledged segment left off.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("pmcheckd: Config.Dir is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 64
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:           cfg,
		tenants:       make(map[string]*tenant),
		conns:         make(map[*serverConn]struct{}),
		draining:      make(chan struct{}),
		mConns:        cfg.Metrics.Counter("pmcheckd.conns"),
		mSegments:     cfg.Metrics.Counter("pmcheckd.segments"),
		mEvents:       cfg.Metrics.Counter("pmcheckd.events"),
		mFinished:     cfg.Metrics.Counter("pmcheckd.streams_finished"),
		mTenantErrors: cfg.Metrics.Counter("pmcheckd.tenant_errors"),
		gTenants:      cfg.Metrics.Gauge("pmcheckd.tenants"),
	}
	if err := s.recoverAll(); err != nil {
		return nil, err
	}
	return s, nil
}

// recoverAll rebuilds every tenant found in the store directory.
func (s *Server) recoverAll() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, logSuffix) {
			continue
		}
		tenantName := strings.TrimSuffix(name, logSuffix)
		if !validTenantName(tenantName) {
			s.logf("skipping store entry with invalid tenant name: %s", name)
			continue
		}
		// The applier is built only after the log header parses, so the
		// tenant carries the durable app/workload metadata before any
		// finish record regenerates its report document.
		var t *tenant
		log, meta, err := openSegLog(filepath.Join(s.cfg.Dir, name), func(meta logMeta) func(byte, []byte) error {
			t = s.newTenant(meta)
			t.replaying = true
			return t.recoverRecord
		})
		if err != nil {
			return fmt.Errorf("pmcheckd: recovering %s: %w", name, err)
		}
		t.replaying = false
		t.log = log
		t.meta = meta
		s.tenants[tenantName] = t
		s.gTenants.Set(int64(len(s.tenants)))
		s.workerWG.Add(1)
		go t.run()
		s.logf("recovered tenant %s: %d segments, %d events, finished=%v",
			tenantName, t.acked.Load(), t.events, t.finishedReport() != nil)
	}
	return nil
}

// Serve accepts connections on ln until Drain closes it. It returns nil on
// a clean drain, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-s.draining:
				return nil
			default:
				return err
			}
		}
		sc := &serverConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
		s.mu.Lock()
		if s.drained {
			s.mu.Unlock()
			c.Close() //nolint:errcheck // refusing during shutdown
			continue
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.mConns.Inc()
		s.connWG.Add(1)
		go s.handleConn(sc)
	}
}

// Drain is the graceful SIGTERM path: stop accepting, close every
// connection, then let each tenant worker finish applying everything it has
// already received. Every applied segment was fsync'd before its ack, so at
// return every open stream is either finished (report produced) or
// checkpointed (resumable from its log by the next daemon process).
func (s *Server) Drain() error {
	s.mu.Lock()
	if s.drained {
		s.mu.Unlock()
		return nil
	}
	s.drained = true
	close(s.draining)
	ln := s.ln
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	tenants := s.tenantList()
	s.mu.Unlock()

	if ln != nil {
		ln.Close() //nolint:errcheck // shutting down
	}
	for _, sc := range conns {
		sc.close()
	}
	s.connWG.Wait()
	for _, t := range tenants {
		close(t.queue)
	}
	s.workerWG.Wait()
	var firstErr error
	for _, t := range tenants {
		if t.log != nil {
			if err := t.log.close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func (s *Server) tenantList() []*tenant {
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// TenantNames returns the known tenants, sorted.
func (s *Server) TenantNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TenantSnapshot returns the named tenant's metrics snapshot (nil when
// unknown): ingest counters plus the hawkset working-set gauges whose flat
// high-water marks are the bounded-RSS acceptance instrument. The line-list
// entries (hawkset.replay.open_stores) and lines (hawkset.replay.lines)
// catch closed stores left in a list; the window records in use
// (hawkset.replay.window_records) catch records that no list holds but
// replay never recycles; the bytes of replay's hash tables
// (hawkset.replay.table_bytes) show what the tables hold, and the bytes of
// its record logs' chunks (hawkset.replay.record_bytes) what the
// deduplicated records do.
func (s *Server) TenantSnapshot(name string) *obs.Snapshot {
	s.mu.Lock()
	t := s.tenants[name]
	s.mu.Unlock()
	if t == nil {
		return nil
	}
	return t.metrics.Snapshot()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// errDraining refuses a hello that arrives while Drain runs. The connection
// is closed without an error frame, like a segment read during a drain: a
// client treats every error frame as terminal, and a drain must look like a
// disconnect so the client resumes against the next daemon.
var errDraining = errors.New("pmcheckd: draining")

// lookupTenant returns (creating if necessary) the tenant for a hello.
func (s *Server) lookupTenant(h hello) (*tenant, error) {
	if !validTenantName(h.Tenant) {
		return nil, fmt.Errorf("pmcheckd: invalid tenant name %q", h.Tenant)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return nil, errDraining
	}
	if t, ok := s.tenants[h.Tenant]; ok {
		return t, nil
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, fmt.Errorf("pmcheckd: tenant limit (%d) reached", s.cfg.MaxTenants)
	}
	meta := logMeta{Tenant: h.Tenant, App: h.App, Workload: h.Workload}
	t := s.newTenant(meta)
	log, err := createSegLog(logPath(s.cfg.Dir, h.Tenant), meta)
	if err != nil {
		return nil, err
	}
	t.log = log
	s.tenants[h.Tenant] = t
	s.gTenants.Set(int64(len(s.tenants)))
	s.workerWG.Add(1)
	go t.run()
	s.logf("new tenant %s (app=%s)", h.Tenant, h.App)
	return t, nil
}

// handleConn speaks the protocol with one client: handshake, hello,
// hello-ack, then a stream of segment/finish frames handed to the tenant
// worker. The reader only ever blocks on its own tenant's queue, so a slow
// tenant cannot stall another tenant's connection.
func (s *Server) handleConn(sc *serverConn) {
	defer s.connWG.Done()
	var owner *tenant
	defer func() {
		sc.close()
		if owner != nil {
			owner.detach(sc)
		}
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
	}()

	if err := readHandshake(sc.br); err != nil {
		s.logf("handshake: %v", err)
		return
	}
	kind, payload, err := readFrame(sc.br)
	if err != nil || kind != fHello {
		sc.sendError(errors.New("pmcheckd: expected hello"))
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		sc.sendError(err)
		return
	}
	t, err := s.lookupTenant(h)
	if errors.Is(err, errDraining) {
		return // a drain is a disconnect, see errDraining
	}
	if err != nil {
		sc.sendError(err)
		return
	}
	if err := t.terminalErr(); err != nil {
		sc.sendError(err)
		return
	}
	owner = t
	if err := sc.send(fHelloAck, encodeHelloAck(t.attach(sc))); err != nil {
		return
	}

	for {
		kind, payload, err := readFrame(sc.br)
		if err != nil {
			return // disconnect: the tenant stays resumable
		}
		var it tenantItem
		switch kind {
		case fSegment:
			seq, err := trace.PeekSegmentSeq(payload)
			if err != nil {
				sc.sendError(fmt.Errorf("pmcheckd: segment without sequence number: %w", err))
				return
			}
			it = tenantItem{kind: recSegment, seq: seq, payload: payload, conn: sc}
		case fFinish:
			p := payloadReader{rest: payload}
			total, err := p.uvarint()
			if err != nil {
				sc.sendError(err)
				return
			}
			it = tenantItem{kind: recFinish, seq: total, conn: sc}
		default:
			sc.sendError(fmt.Errorf("pmcheckd: unexpected frame kind %d", kind))
			return
		}
		select {
		case t.queue <- it:
		case <-s.draining:
			return // a drain is a disconnect, see errDraining
		}
	}
}

// serverConn wraps one client connection with a write lock, since the
// tenant worker (acks, reports) and the reader goroutine (protocol errors)
// both write to it.
type serverConn struct {
	c  net.Conn
	br *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer
}

func (sc *serverConn) send(kind byte, payload []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return writeFrame(sc.bw, kind, payload)
}

func (sc *serverConn) sendError(err error) {
	sc.send(fError, appendString(nil, err.Error())) //nolint:errcheck // conn is going away
}

func (sc *serverConn) close() {
	sc.c.Close() //nolint:errcheck // close is advisory here
}
