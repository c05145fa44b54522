// Package pmcheckd is the trace-ingestion daemon: it promotes the online
// analysis mode (hawkset.Stream) into a long-running, fault-tolerant,
// multi-tenant service. A fleet of instrumented application instances
// streams trace events over TCP or a unix socket; the daemon demultiplexes
// each tenant onto its own hawkset.Stream, analyzing at ingest so no trace
// is retained in memory (the trace-based run-time-analysis discipline), and
// persists every segment to a crash-safe per-tenant log before
// acknowledging it, so clients resume after disconnects and the daemon
// resumes after crashes — in both cases producing a report byte-identical
// to an offline hawkset.Analyze over the same events.
//
// Robustness is structural rather than best-effort:
//
//   - per-stream sequence numbers + a fsync'd segment log give exactly-once
//     application under at-least-once delivery (duplicate segments are
//     acked and dropped);
//   - credit-based backpressure bounds every tenant's in-flight memory and
//     keeps one slow or hostile tenant from stalling the rest (each tenant
//     has its own bounded queue and worker goroutine);
//   - per-tenant event budgets turn runaway streams into typed errors, not
//     RSS growth;
//   - graceful drain (SIGTERM in cmd/pmcheckd) finishes or checkpoints
//     every open stream — checkpointing is free because acked means
//     durable — and flushes metrics;
//   - partial tail frames in the segment log are truncated on recovery
//     (the same hostile-input discipline as trace.FuzzDecode).
package pmcheckd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire protocol: after a fixed handshake ("PMCD" magic + version uvarint,
// client to server), both directions speak length-prefixed frames:
//
//	kind    byte
//	length  uvarint
//	payload length bytes
//
// Client frames: hello (tenant, app, workload), segment (a
// trace.EncodeSegmentWith payload carrying the per-stream sequence number),
// finish (total segment count). Server frames: hello-ack (highest durable
// sequence number + initial credits + finished flag), ack (durable sequence
// number + granted credits), report (the final JSON document), error.
const (
	wireMagic   = "PMCD"
	wireVersion = 1
)

// Frame kinds.
const (
	fHello    byte = 1 // c→s: tenant string, app string, workload string
	fSegment  byte = 2 // c→s: trace segment (seq, new frames, events)
	fFinish   byte = 3 // c→s: total uvarint (segments in the whole stream)
	fHelloAck byte = 4 // s→c: acked uvarint, credits uvarint, finished byte
	fAck      byte = 5 // s→c: acked uvarint, credits uvarint (granted delta)
	fReport   byte = 6 // s→c: report JSON bytes
	fError    byte = 7 // s→c: message string
)

// maxFramePayload bounds one frame. Counts inside a frame are further
// bounded by the segment decoder; this cap stops a hostile length prefix
// from driving a single allocation.
const maxFramePayload = 16 << 20

// maxWireString bounds the tenant/app/workload/error strings.
const maxWireString = 4096

var errFrameTooLarge = errors.New("pmcheckd: frame exceeds size limit")

func writeHandshake(bw *bufio.Writer) error {
	if _, err := bw.WriteString(wireMagic); err != nil {
		return err
	}
	putUvarint(bw, wireVersion)
	return nil
}

func readHandshake(br *bufio.Reader) error {
	var mg [len(wireMagic)]byte
	if _, err := io.ReadFull(br, mg[:]); err != nil {
		return fmt.Errorf("pmcheckd: handshake: %w", err)
	}
	if string(mg[:]) != wireMagic {
		return errors.New("pmcheckd: bad magic (not a pmcheckd client)")
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("pmcheckd: handshake version: %w", err)
	}
	if v != wireVersion {
		return fmt.Errorf("pmcheckd: unsupported protocol version %d", v)
	}
	return nil
}

// writeFrame emits one frame and flushes — every frame is a self-contained
// protocol step, so buffering across frames would only add latency.
func writeFrame(bw *bufio.Writer, kind byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return errFrameTooLarge
	}
	if err := bw.WriteByte(kind); err != nil {
		return err
	}
	putUvarint(bw, uint64(len(payload)))
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	return bw.Flush()
}

// readFrame parses one frame. The payload length is untrusted: anything
// above the cap is rejected before allocation.
func readFrame(br *bufio.Reader) (byte, []byte, error) {
	kind, err := br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, err
	}
	if n > maxFramePayload {
		return 0, nil, errFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, err
	}
	return kind, payload, nil
}

func putUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	bw.Write(buf[:n]) //nolint:errcheck // bufio defers errors to Flush
}

// appendUvarint / appendString build frame payloads in memory.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// payloadReader consumes a frame payload field by field, with every length
// and count treated as hostile.
type payloadReader struct {
	rest []byte
}

func (p *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.rest)
	if n <= 0 {
		return 0, errors.New("pmcheckd: truncated varint")
	}
	p.rest = p.rest[n:]
	return v, nil
}

func (p *payloadReader) string() (string, error) {
	n, err := p.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxWireString {
		return "", fmt.Errorf("pmcheckd: string length %d too large", n)
	}
	if uint64(len(p.rest)) < n {
		return "", errors.New("pmcheckd: truncated string")
	}
	s := string(p.rest[:n])
	p.rest = p.rest[n:]
	return s, nil
}

func (p *payloadReader) byte() (byte, error) {
	if len(p.rest) == 0 {
		return 0, errors.New("pmcheckd: truncated byte")
	}
	b := p.rest[0]
	p.rest = p.rest[1:]
	return b, nil
}

func (p *payloadReader) done() error {
	if len(p.rest) != 0 {
		return fmt.Errorf("pmcheckd: %d trailing payload bytes", len(p.rest))
	}
	return nil
}

// hello is the first client frame on every connection.
type hello struct {
	Tenant   string
	App      string
	Workload string
}

func encodeHello(h hello) []byte {
	b := appendString(nil, h.Tenant)
	b = appendString(b, h.App)
	return appendString(b, h.Workload)
}

func decodeHello(payload []byte) (hello, error) {
	var h hello
	p := payloadReader{rest: payload}
	var err error
	if h.Tenant, err = p.string(); err != nil {
		return h, err
	}
	if h.App, err = p.string(); err != nil {
		return h, err
	}
	if h.Workload, err = p.string(); err != nil {
		return h, err
	}
	return h, p.done()
}

// helloAck tells a (re)connecting client where to resume.
type helloAck struct {
	Acked    uint64 // highest durable, applied segment sequence number
	Credits  uint64 // segments the client may have in flight
	Finished bool   // the tenant already produced its report
}

func encodeHelloAck(a helloAck) []byte {
	b := appendUvarint(nil, a.Acked)
	b = appendUvarint(b, a.Credits)
	fin := byte(0)
	if a.Finished {
		fin = 1
	}
	return append(b, fin)
}

func decodeHelloAck(payload []byte) (helloAck, error) {
	var a helloAck
	p := payloadReader{rest: payload}
	var err error
	if a.Acked, err = p.uvarint(); err != nil {
		return a, err
	}
	if a.Credits, err = p.uvarint(); err != nil {
		return a, err
	}
	fin, err := p.byte()
	if err != nil {
		return a, err
	}
	a.Finished = fin != 0
	return a, p.done()
}

// ack confirms durability through Acked and grants Credits further
// in-flight segments.
type ack struct {
	Acked   uint64
	Credits uint64
}

func encodeAck(a ack) []byte {
	b := appendUvarint(nil, a.Acked)
	return appendUvarint(b, a.Credits)
}

func decodeAck(payload []byte) (ack, error) {
	var a ack
	p := payloadReader{rest: payload}
	var err error
	if a.Acked, err = p.uvarint(); err != nil {
		return a, err
	}
	if a.Credits, err = p.uvarint(); err != nil {
		return a, err
	}
	return a, p.done()
}
