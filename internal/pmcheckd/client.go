package pmcheckd

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"time"

	"hawkset/internal/sites"
	"hawkset/internal/trace"
)

// ClientConfig configures a streaming client.
type ClientConfig struct {
	// Addr is the daemon address: "host:port" for TCP or "unix:/path" for
	// a unix socket. Ignored when Dial is set.
	Addr string
	// Dial overrides connection establishment (tests inject network faults
	// here). Called for the initial connection and every reconnect.
	Dial func() (net.Conn, error)
	// Tenant identifies the stream. Reconnecting with the same tenant name
	// resumes from the daemon's last acknowledged segment.
	Tenant string
	// App and Workload label the report document, exactly as the offline
	// report.New arguments would.
	App, Workload string
	// SegmentEvents is the batch size: a segment is sent every this many
	// events (default 2048). Smaller segments mean finer resumption
	// granularity; larger segments mean fewer round trips.
	SegmentEvents int
	// MaxAttempts bounds consecutive failed connection attempts before the
	// client gives up (default 10). Progress on any connection resets the
	// count.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential reconnect backoff
	// (defaults 10ms and 2s). Jitter is applied on top: each delay is
	// uniformly drawn from [d/2, d], from a generator seeded with 1.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Compress flate-compresses segment payload blocks before they leave
	// the process. Worth it on slow links; the daemon accepts either.
	Compress bool
	// Logf, when non-nil, receives retry/resume diagnostics.
	Logf func(format string, args ...any)
}

// Client streams trace events to a pmcheckd daemon, surviving connection
// loss: unacknowledged segments are retained (bounded by the server's
// credit window), reconnects resume from the server's acknowledged sequence
// number, and re-sent segments are deduplicated server-side. Feed matches
// the pmrt.Runtime.EventSink signature; errors are sticky and surface on
// Err and Finish.
//
// Client is not safe for concurrent use — one client per instrumented
// runtime, exactly like the Stream it feeds remotely.
type Client struct {
	cfg   ClientConfig
	sites *sites.Table
	rng   *rand.Rand

	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	buf        []trace.Event
	nextSeq    uint64
	acked      uint64
	unacked    []pending
	credits    uint64
	sentSeq    uint64 // highest seq written on the current connection
	sentFrames int    // site frames sent so far (excluding reserved frame 0)

	reportJSON []byte
	err        error
}

type pending struct {
	seq     uint64
	payload []byte
}

// NewClient creates a client bound to the site table of the runtime whose
// events it will stream (rt.Trace.Sites). No connection is made until the
// first segment is due; Connect forces one eagerly.
func NewClient(st *sites.Table, cfg ClientConfig) (*Client, error) {
	if cfg.Tenant == "" {
		return nil, errors.New("pmcheckd: ClientConfig.Tenant is required")
	}
	if cfg.SegmentEvents <= 0 {
		cfg.SegmentEvents = 2048
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 10
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 10 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.Dial == nil && cfg.Addr == "" {
		return nil, errors.New("pmcheckd: ClientConfig.Addr or Dial is required")
	}
	c := &Client{
		cfg:     cfg,
		sites:   st,
		rng:     rand.New(rand.NewSource(1)),
		nextSeq: 1,
	}
	return c, nil
}

// DialAddr connects to a pmcheckd address of the form "host:port" or
// "unix:/path/to.sock".
func DialAddr(addr string) (net.Conn, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return net.Dial("unix", path)
	}
	return net.Dial("tcp", addr)
}

// Connect establishes (or re-establishes) the connection eagerly, so a
// misconfigured address fails before the instrumented run starts.
func (c *Client) Connect() error {
	if c.err != nil {
		return c.err
	}
	return c.ensureConn()
}

// Feed consumes one instrumented event (assign it to pmrt's EventSink).
// Transport failures are retried transparently; exhausted retries and
// server-side rejections (budget, protocol) become sticky errors surfaced
// by Err and Finish, after which Feed drops events silently — the
// instrumented application must not crash because its analysis daemon went
// away.
func (c *Client) Feed(e trace.Event) {
	if c.err != nil {
		return
	}
	c.buf = append(c.buf, e)
	if len(c.buf) >= c.cfg.SegmentEvents {
		c.setErr(c.flushSegment())
	}
}

// Err returns the sticky client error, if any.
func (c *Client) Err() error { return c.err }

// Sync blocks until every segment flushed so far is acknowledged by the
// daemon — i.e. durable in its log. Events still buffered below one
// segment boundary are NOT flushed (call Finish for that); Sync is the
// checkpoint primitive: after it returns nil, a client crash loses at most
// the unflushed remainder.
func (c *Client) Sync() error {
	if c.err != nil {
		return c.err
	}
	err := c.withRetry("sync", func() error {
		if len(c.unacked) == 0 {
			return nil
		}
		if err := c.sendAllOnConn(); err != nil {
			return err
		}
		for len(c.unacked) > 0 {
			if err := c.awaitAck(); err != nil {
				return err
			}
		}
		return nil
	})
	c.setErr(err)
	return err
}

// Finish flushes buffered events, tells the daemon the stream is complete,
// and returns the analysis report JSON — byte-identical to an offline
// hawkset.Analyze + report.New + WriteJSON over the same events.
func (c *Client) Finish() ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.reportJSON != nil {
		return c.reportJSON, nil
	}
	if len(c.buf) > 0 {
		if err := c.flushSegment(); err != nil {
			c.setErr(err)
			return nil, err
		}
	}
	if err := c.finishExchange(); err != nil {
		c.setErr(err)
		return nil, err
	}
	return c.reportJSON, nil
}

// Close releases the connection. The tenant stays resumable server-side.
func (c *Client) Close() error {
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

func (c *Client) setErr(err error) {
	if err != nil && c.err == nil {
		c.err = err
		c.Close() //nolint:errcheck // already failing
	}
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// flushSegment packages the buffered events (plus any site frames interned
// since the last segment) and sends it under the credit window.
func (c *Client) flushSegment() error {
	frames := c.sites.Frames()
	seg := &trace.Segment{
		Seq:    c.nextSeq,
		Frames: frames[1+c.sentFrames:],
		Events: c.buf,
	}
	payload, err := trace.EncodeSegmentWith(nil, seg, trace.Options{Compress: c.cfg.Compress})
	if err != nil {
		return err
	}
	c.sentFrames = len(frames) - 1
	c.nextSeq++
	c.buf = c.buf[:0]
	c.unacked = append(c.unacked, pending{seq: seg.Seq, payload: payload})
	return c.sendPending()
}

// withRetry runs one connection-bound protocol exchange, redialing with
// jittered exponential backoff on transport errors. Explicit server
// rejections are terminal (retrying the same stream cannot help); durable
// progress (the acked watermark advancing) resets the attempt counter, so a
// lossy-but-moving link is not mistaken for a dead one.
func (c *Client) withRetry(op string, fn func() error) error {
	for attempt := 0; ; {
		ackedBefore := c.acked
		err := fn()
		if err == nil {
			return nil
		}
		if terminal := (&serverError{}); errors.As(err, &terminal) {
			return err
		}
		if c.acked > ackedBefore {
			attempt = 0
		}
		attempt++
		if attempt >= c.cfg.MaxAttempts {
			return fmt.Errorf("pmcheckd: %s: giving up after %d attempts: %w", op, attempt, err)
		}
		c.logf("%s failed (attempt %d): %v", op, attempt, err)
		c.dropConn()
		c.sleepBackoff(attempt)
	}
}

// sendPending pushes queued unacknowledged segments out, blocking on acks
// when the credit window is exhausted and transparently redialing on any
// transport error.
func (c *Client) sendPending() error {
	return c.withRetry("send", c.sendAllOnConn)
}

// sendAllOnConn writes every retained segment not yet on the current
// connection, under the credit window. Progress is tracked by sequence
// number, not slice position: acks arriving mid-loop shrink c.unacked in
// place, so indexes are unstable but sequence numbers are not.
func (c *Client) sendAllOnConn() error {
	if err := c.ensureConn(); err != nil {
		return err
	}
	for {
		// Lowest retained segment not yet written on this connection.
		idx := -1
		for i := range c.unacked {
			if c.unacked[i].seq > c.sentSeq {
				idx = i
				break
			}
		}
		if idx == -1 {
			return nil
		}
		if c.credits == 0 {
			if err := c.awaitAck(); err != nil {
				return err
			}
			continue // the ack may have shifted c.unacked: re-scan
		}
		if err := writeFrame(c.bw, fSegment, c.unacked[idx].payload); err != nil {
			return err
		}
		c.credits--
		c.sentSeq = c.unacked[idx].seq
		// Drain any acks that already arrived, without blocking.
		if err := c.reapAcks(); err != nil {
			return err
		}
	}
}

// finishExchange sends the finish frame and waits for the report,
// reconnecting as needed (the finish is idempotent server-side).
func (c *Client) finishExchange() error {
	return c.withRetry("finish", func() error {
		if err := c.sendAllOnConn(); err != nil {
			return err
		}
		var fin []byte
		fin = appendUvarint(fin, c.nextSeq-1)
		if err := writeFrame(c.bw, fFinish, fin); err != nil {
			return err
		}
		for {
			kind, payload, err := readFrame(c.br)
			if err != nil {
				return err
			}
			switch kind {
			case fAck:
				if err := c.applyAck(payload); err != nil {
					return err
				}
			case fReport:
				c.reportJSON = payload
				return nil
			case fError:
				return decodeServerError(payload)
			default:
				return fmt.Errorf("pmcheckd: unexpected frame kind %d awaiting report", kind)
			}
		}
	})
}

// ensureConn dials, handshakes and resumes if no connection is live.
func (c *Client) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	conn, err := c.dial()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)
	if err := writeHandshake(bw); err != nil {
		conn.Close() //nolint:errcheck // already failing
		return err
	}
	h := hello{Tenant: c.cfg.Tenant, App: c.cfg.App, Workload: c.cfg.Workload}
	if err := writeFrame(bw, fHello, encodeHello(h)); err != nil {
		conn.Close() //nolint:errcheck // already failing
		return err
	}
	kind, payload, err := readFrame(br)
	if err != nil {
		conn.Close() //nolint:errcheck // already failing
		return err
	}
	if kind == fError {
		conn.Close() //nolint:errcheck // already failing
		return decodeServerError(payload)
	}
	if kind != fHelloAck {
		conn.Close() //nolint:errcheck // already failing
		return fmt.Errorf("pmcheckd: expected hello-ack, got frame kind %d", kind)
	}
	ha, err := decodeHelloAck(payload)
	if err != nil {
		conn.Close() //nolint:errcheck // already failing
		return err
	}
	c.conn, c.br, c.bw = conn, br, bw
	c.credits = ha.Credits
	c.dropAcked(ha.Acked)
	// A fresh connection starts from the server's durable position: every
	// retained segment above it is re-sent (and deduplicated server-side if
	// it did arrive before the cut).
	c.sentSeq = c.acked
	if ha.Acked > 0 || len(c.unacked) > 0 {
		c.logf("resumed tenant %s at segment %d (%d unacked to replay)", c.cfg.Tenant, ha.Acked, len(c.unacked))
	}
	return nil
}

func (c *Client) dial() (net.Conn, error) {
	if c.cfg.Dial != nil {
		return c.cfg.Dial()
	}
	return DialAddr(c.cfg.Addr)
}

func (c *Client) dropConn() {
	if c.conn != nil {
		c.conn.Close() //nolint:errcheck // tearing down a broken conn
		c.conn = nil
	}
	c.credits = 0
}

// awaitAck blocks until one server frame arrives and applies it.
func (c *Client) awaitAck() error {
	kind, payload, err := readFrame(c.br)
	if err != nil {
		return err
	}
	switch kind {
	case fAck:
		return c.applyAck(payload)
	case fError:
		return decodeServerError(payload)
	default:
		return fmt.Errorf("pmcheckd: unexpected frame kind %d awaiting ack", kind)
	}
}

// reapAcks applies acks that are already buffered locally, never touching
// the socket — it cannot block and cannot miss data (anything unread stays
// readable for awaitAck).
func (c *Client) reapAcks() error {
	for c.br.Buffered() > 0 {
		if err := c.awaitAck(); err != nil {
			return err
		}
	}
	return nil
}

func (c *Client) applyAck(payload []byte) error {
	a, err := decodeAck(payload)
	if err != nil {
		return err
	}
	c.dropAcked(a.Acked)
	c.credits += a.Credits
	return nil
}

// dropAcked releases retained segments up to and including seq.
func (c *Client) dropAcked(seq uint64) {
	if seq > c.acked {
		c.acked = seq
	}
	keep := c.unacked[:0]
	for _, p := range c.unacked {
		if p.seq > seq {
			keep = append(keep, p)
		}
	}
	c.unacked = keep
}

// sleepBackoff sleeps the jittered exponential delay for the given attempt.
func (c *Client) sleepBackoff(attempt int) {
	d := c.cfg.BackoffBase << (attempt - 1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	// Full jitter over the top half: [d/2, d].
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	time.Sleep(d)
}

// serverError is a rejection the server stated explicitly (budget exceeded,
// protocol violation, draining): retrying the same stream cannot succeed.
type serverError struct{ msg string }

func (e *serverError) Error() string { return "pmcheckd server: " + e.msg }

func decodeServerError(payload []byte) error {
	p := payloadReader{rest: payload}
	msg, err := p.string()
	if err != nil {
		return fmt.Errorf("pmcheckd: undecodable server error: %w", err)
	}
	return &serverError{msg: msg}
}
