package pmcheckd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hawkset/internal/hawkset"
	"hawkset/internal/obs"
	"hawkset/internal/report"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
)

// ErrBudgetExceeded is the terminal tenant error for a stream that exceeds
// its per-tenant event budget. The tenant is rejected, not the daemon: other
// tenants keep streaming.
var ErrBudgetExceeded = errors.New("pmcheckd: tenant event budget exceeded")

// errFinished mirrors hawkset.ErrStreamFinished at the protocol layer.
var errFinished = errors.New("pmcheckd: stream already finished")

// tenantItem is one unit of tenant-worker work: a segment or a finish
// request, tagged with the connection that submitted it so acknowledgements
// and errors reach the right client.
type tenantItem struct {
	kind    byte // recSegment or recFinish
	seq     uint64
	payload []byte
	conn    *serverConn
}

// tenant is one ingest stream: its own hawkset.Stream, site table, durable
// segment log, bounded work queue and worker goroutine. All analysis state
// is worker-owned; the accept path only enqueues, so a stalled or hostile
// tenant saturates its own queue and nothing else.
type tenant struct {
	name string
	meta logMeta
	srv  *Server

	queue chan tenantItem

	// Worker-owned (or recovery-owned, before the worker starts).
	log       *segLog
	stream    *hawkset.Stream
	table     *sites.Table
	events    uint64
	replaying bool // during log recovery: apply but do not re-append

	acked atomic.Uint64

	mu     sync.Mutex
	conn   *serverConn
	report []byte // JSON document, non-nil once finished
	failed error  // terminal error; the tenant accepts nothing more

	metrics   *obs.Registry
	mSegments *obs.Counter
	mEvents   *obs.Counter
	mDupes    *obs.Counter
}

func (s *Server) newTenant(meta logMeta) *tenant {
	reg := obs.NewRegistry()
	t := &tenant{
		name:      meta.Tenant,
		meta:      meta,
		srv:       s,
		queue:     make(chan tenantItem, s.cfg.QueueDepth),
		table:     sites.NewTable(),
		metrics:   reg,
		mSegments: reg.Counter("pmcheckd.tenant.segments"),
		mEvents:   reg.Counter("pmcheckd.tenant.events"),
		mDupes:    reg.Counter("pmcheckd.tenant.dup_segments"),
	}
	// A client's report is byte-identical to an offline hawkset.Analyze
	// under DefaultConfig.
	cfg := hawkset.DefaultConfig()
	cfg.Metrics = reg // per-tenant working-set gauges and stage timings
	t.stream = hawkset.NewStream(t.table, cfg)
	return t
}

// run is the tenant worker: it drains the queue until the server closes it
// at drain time. Everything it applies is durable before it is acked.
func (t *tenant) run() {
	defer t.srv.workerWG.Done()
	for it := range t.queue {
		switch it.kind {
		case recSegment:
			t.handleSegment(it)
		case recFinish:
			t.handleFinish(it)
		}
	}
}

// fail marks the tenant terminally broken and reports why to the submitting
// client.
func (t *tenant) fail(it tenantItem, err error) {
	t.mu.Lock()
	if t.failed == nil {
		t.failed = err
	}
	t.mu.Unlock()
	t.srv.mTenantErrors.Inc()
	t.srv.logf("tenant %s: %v", t.name, err)
	it.conn.sendError(err)
}

func (t *tenant) terminalErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed
}

func (t *tenant) handleSegment(it tenantItem) {
	if err := t.terminalErr(); err != nil {
		it.conn.sendError(err)
		return
	}
	if t.finishedReport() != nil {
		it.conn.sendError(errFinished)
		return
	}
	acked := t.acked.Load()
	if it.seq <= acked {
		// Idempotent replay: the client re-sent a segment that is already
		// durable and applied (it never saw our ack). Confirm and refuel.
		t.mDupes.Inc()
		it.conn.send(fAck, encodeAck(ack{Acked: acked, Credits: 1})) //nolint:errcheck // conn errors surface on the reader
		return
	}
	if it.seq != acked+1 {
		t.fail(it, fmt.Errorf("pmcheckd: segment gap: got seq %d, want %d", it.seq, acked+1))
		return
	}
	if err := t.applySegment(it.payload); err != nil {
		t.fail(it, err)
		return
	}
	it.conn.send(fAck, encodeAck(ack{Acked: t.acked.Load(), Credits: 1})) //nolint:errcheck // conn errors surface on the reader
}

// applySegment is the durability-then-apply core, shared by live ingest and
// log recovery: decode, enforce the budget, persist (unless replaying the
// log itself), append the new site frames, feed the events, bump acked.
func (t *tenant) applySegment(payload []byte) error {
	seg, err := trace.DecodeSegment(payload, t.table.Len())
	if err != nil {
		return err
	}
	if max := t.srv.cfg.MaxEventsPerTenant; max > 0 && t.events+uint64(len(seg.Events)) > max {
		return fmt.Errorf("%w: %d events over budget %d", ErrBudgetExceeded, t.events+uint64(len(seg.Events)), max)
	}
	if !t.replaying {
		if err := t.log.append(recSegment, payload); err != nil {
			return fmt.Errorf("pmcheckd: segment log: %w", err)
		}
	}
	for _, f := range seg.Frames {
		t.table.Append(f)
	}
	for _, e := range seg.Events {
		if err := t.stream.Feed(e); err != nil {
			return err // unreachable while report == nil; kept for safety
		}
	}
	t.events += uint64(len(seg.Events))
	t.acked.Store(seg.Seq)
	t.mSegments.Inc()
	t.mEvents.Add(uint64(len(seg.Events)))
	t.srv.mSegments.Inc()
	t.srv.mEvents.Add(uint64(len(seg.Events)))
	return nil
}

func (t *tenant) handleFinish(it tenantItem) {
	if err := t.terminalErr(); err != nil {
		it.conn.sendError(err)
		return
	}
	if doc := t.finishedReport(); doc != nil {
		// Idempotent fetch: the client lost the connection after our report
		// frame (or a previous daemon run finished the stream).
		it.conn.send(fReport, doc) //nolint:errcheck // conn errors surface on the reader
		return
	}
	if total := it.seq; total != t.acked.Load() {
		// Not terminal: the client may reconcile (re-send the missing
		// segments) and finish again.
		it.conn.sendError(fmt.Errorf("pmcheckd: finish with %d segments but only %d acked", total, t.acked.Load()))
		return
	}
	doc, err := t.finishStream()
	if err != nil {
		t.fail(it, err)
		return
	}
	it.conn.send(fReport, doc) //nolint:errcheck // conn errors surface on the reader
}

// finishStream runs stage ③, renders the JSON document, and records the
// finish durably. Deterministic by construction: the same segments produce
// the same document, which is how a restarted daemon regenerates reports
// without storing them.
func (t *tenant) finishStream() ([]byte, error) {
	res, err := t.stream.Finish()
	if err != nil {
		return nil, err
	}
	doc := report.New(res, t.meta.App, t.meta.Workload, nil)
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		return nil, err
	}
	if !t.replaying {
		var fin []byte
		fin = binary.AppendUvarint(fin, t.acked.Load())
		if err := t.log.append(recFinish, fin); err != nil {
			return nil, fmt.Errorf("pmcheckd: finish log: %w", err)
		}
	}
	t.mu.Lock()
	t.report = buf.Bytes()
	t.mu.Unlock()
	t.srv.mFinished.Inc()
	return buf.Bytes(), nil
}

func (t *tenant) finishedReport() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.report
}

// recoverRecord replays one durable log record during daemon startup.
func (t *tenant) recoverRecord(kind byte, payload []byte) error {
	switch kind {
	case recSegment:
		seq, err := trace.PeekSegmentSeq(payload)
		if err != nil {
			return fmt.Errorf("pmcheckd: recovered segment without sequence number: %w", err)
		}
		if seq != t.acked.Load()+1 {
			return fmt.Errorf("pmcheckd: recovered segment gap: got seq %d, want %d", seq, t.acked.Load()+1)
		}
		return t.applySegment(payload)
	case recFinish:
		p := payloadReader{rest: payload}
		total, err := p.uvarint()
		if err != nil {
			return err
		}
		if total != t.acked.Load() {
			return fmt.Errorf("pmcheckd: recovered finish at %d segments but %d applied", total, t.acked.Load())
		}
		_, err = t.finishStream()
		return err
	default:
		return fmt.Errorf("pmcheckd: unknown log record kind %d", kind)
	}
}

// attach makes sc the tenant's active connection, preempting (closing) any
// previous one — the previous client is gone or superseded; it can
// reconnect and resume. Returns the hello-ack to send.
func (t *tenant) attach(sc *serverConn) helloAck {
	t.mu.Lock()
	old := t.conn
	t.conn = sc
	finished := t.report != nil
	t.mu.Unlock()
	if old != nil && old != sc {
		old.close()
	}
	credits := uint64(0)
	if free := cap(t.queue) - len(t.queue); free > 0 {
		credits = uint64(free)
	}
	return helloAck{Acked: t.acked.Load(), Credits: credits, Finished: finished}
}

// detach clears the active connection if sc still holds it.
func (t *tenant) detach(sc *serverConn) {
	t.mu.Lock()
	if t.conn == sc {
		t.conn = nil
	}
	t.mu.Unlock()
}
