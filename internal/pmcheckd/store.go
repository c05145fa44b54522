package pmcheckd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The segment store is one append-only log file per tenant:
//
//	header  magic "PMCL", version byte,
//	        tenant string, app string, workload string
//	records kind byte (1=segment, 2=finish), length uvarint, payload
//
// A segment record's payload is exactly the trace.EncodeSegmentWith bytes
// that arrived on the wire; a finish record's payload is the uvarint total
// segment count. Every append is fsync'd before the segment is acknowledged
// to the client, so "acked" means "durable": a crashed daemon rebuilds each
// tenant's analysis state by replaying its log, and a client that saw an
// ack never needs to re-send that segment (re-sending is still safe — the
// sequence number makes replay idempotent).
//
// Crash-safety at the tail: a daemon killed mid-append leaves a partial
// record. Recovery scans the log record by record and truncates at the last
// well-formed boundary — the same corrupt-tail discipline trace.FuzzDecode
// enforces for trace files — so a torn tail can neither wedge recovery nor
// smuggle garbage into the analysis.
const (
	logMagic   = "PMCL"
	logVersion = 1

	recSegment byte = 1
	recFinish  byte = 2
)

// logSuffix names tenant logs inside the store directory.
const logSuffix = ".seglog"

// logMeta is the per-tenant header: identity the daemon needs to rebuild
// the tenant (and regenerate its report) without the client.
type logMeta struct {
	Tenant   string
	App      string
	Workload string
}

// segLog is an open per-tenant log positioned at its end.
type segLog struct {
	f    *os.File
	path string
}

// validTenantName gates what may become part of a file name. The tenant
// string comes off the network; anything outside a conservative charset is
// rejected before it touches the filesystem.
func validTenantName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	// Purely dot-composed names ("..", ".") are path navigation, not IDs.
	return strings.Trim(name, ".") != ""
}

func logPath(dir, tenant string) string {
	return filepath.Join(dir, tenant+logSuffix)
}

// createSegLog starts a fresh log with the header durably on disk (file and
// directory both synced: the log must survive a crash immediately after the
// first ack).
func createSegLog(path string, meta logMeta) (*segLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr []byte
	hdr = append(hdr, logMagic...)
	hdr = append(hdr, logVersion)
	hdr = appendString(hdr, meta.Tenant)
	hdr = appendString(hdr, meta.App)
	hdr = appendString(hdr, meta.Workload)
	if _, err := f.Write(hdr); err != nil {
		f.Close() //nolint:errcheck // already failing
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close() //nolint:errcheck // already failing
		return nil, err
	}
	return &segLog{f: f, path: path}, nil
}

// openSegLog reopens an existing log: it parses the header, replays every
// well-formed record through the applier built by applyFor (which receives
// the header's metadata first — replay may depend on it), truncates any
// partial tail, and leaves the file positioned for appending.
func openSegLog(path string, applyFor func(meta logMeta) func(kind byte, payload []byte) error) (*segLog, logMeta, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, logMeta{}, err
	}
	meta, validLen, err := replayLog(f, applyFor)
	if err != nil {
		f.Close() //nolint:errcheck // already failing
		return nil, logMeta{}, err
	}
	// Truncate the torn tail (no-op when the log ends cleanly) and position
	// at the new end.
	if err := f.Truncate(validLen); err != nil {
		f.Close() //nolint:errcheck // already failing
		return nil, logMeta{}, err
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close() //nolint:errcheck // already failing
		return nil, logMeta{}, err
	}
	return &segLog{f: f, path: path}, meta, nil
}

// replayLog reads the header and all complete records, returning the byte
// length of the well-formed prefix. A malformed header is an error (the
// file is not a segment log); a malformed or partial record merely ends the
// replay — that is the torn tail truncation cuts off.
func replayLog(f *os.File, applyFor func(meta logMeta) func(kind byte, payload []byte) error) (logMeta, int64, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return logMeta{}, 0, err
	}
	if len(data) < len(logMagic)+1 || string(data[:len(logMagic)]) != logMagic {
		return logMeta{}, 0, fmt.Errorf("%s: not a segment log", f.Name())
	}
	if data[len(logMagic)] != logVersion {
		return logMeta{}, 0, fmt.Errorf("%s: unsupported log version %d", f.Name(), data[len(logMagic)])
	}
	p := payloadReader{rest: data[len(logMagic)+1:]}
	var meta logMeta
	if meta.Tenant, err = p.string(); err != nil {
		return logMeta{}, 0, fmt.Errorf("%s: header: %w", f.Name(), err)
	}
	if meta.App, err = p.string(); err != nil {
		return logMeta{}, 0, fmt.Errorf("%s: header: %w", f.Name(), err)
	}
	if meta.Workload, err = p.string(); err != nil {
		return logMeta{}, 0, fmt.Errorf("%s: header: %w", f.Name(), err)
	}
	apply := applyFor(meta)
	offset := int64(len(data) - len(p.rest))
	rest := p.rest
	for {
		kind, payload, n := nextRecord(rest)
		if n == 0 {
			break // partial or malformed tail: truncate here
		}
		if err := apply(kind, payload); err != nil {
			// The record was durable but does not apply (e.g. a sequence
			// gap after manual tampering): surface it — silently dropping
			// applied-state would desync acked from the stream.
			return logMeta{}, 0, fmt.Errorf("%s: replay at offset %d: %w", f.Name(), offset, err)
		}
		offset += int64(n)
		rest = rest[n:]
	}
	return meta, offset, nil
}

// nextRecord parses one record from b, returning its total encoded length
// (0 when b holds no complete, plausible record).
func nextRecord(b []byte) (kind byte, payload []byte, n int) {
	if len(b) < 2 {
		return 0, nil, 0
	}
	kind = b[0]
	if kind != recSegment && kind != recFinish {
		return 0, nil, 0
	}
	length, vn := binary.Uvarint(b[1:])
	if vn <= 0 || length > maxFramePayload {
		return 0, nil, 0
	}
	total := 1 + vn + int(length)
	if total > len(b) {
		return 0, nil, 0
	}
	return kind, b[1+vn : total], total
}

// append durably adds one record: the write and fsync complete before the
// caller acknowledges the segment.
func (l *segLog) append(kind byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return errFrameTooLarge
	}
	rec := make([]byte, 0, 1+binary.MaxVarintLen64+len(payload))
	rec = append(rec, kind)
	rec = binary.AppendUvarint(rec, uint64(len(payload)))
	rec = append(rec, payload...)
	if _, err := l.f.Write(rec); err != nil {
		return err
	}
	return l.f.Sync()
}

func (l *segLog) close() error {
	return l.f.Close()
}

// syncDir fsyncs a directory so a freshly created log file's directory
// entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		// Some filesystems reject fsync on directories; the entry will
		// still land with the next journal commit.
		return err
	}
	return nil
}
