package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"hawkset/internal/sites"
)

// Binary trace formats, both behind the same magic + version header:
//
//	magic   "HWKT"            4 bytes
//	version uvarint           1 or 2
//
// Format v1 (the original, now read-only):
//
//	nsites  uvarint           number of site frames (excluding reserved 0)
//	sites   nsites × frame    frame = file string, line uvarint, func string
//	nevents uvarint
//	events  nevents × event   event = kind byte, tid uvarint, then
//	                          kind-dependent fields, all uvarint
//	strings are uvarint length + bytes
//
// Format v2 (delta-encoded, block-framed; layout in codec_v2.go) shares the
// site-table encoding and replaces the event section with CRC'd blocks.
//
// Decode reads both versions; the encoders write only v2. Committed v1
// fixtures (testdata/golden_v1*.hwkt) pin the v1 layout the decoder reads.
// The format exists so traces can be captured once (cmd/hawkset -trace-out)
// and analyzed repeatedly or inspected with cmd/tracedump, mirroring the
// decoupling between HawkSet's instrumentation and analysis stages. A
// decoder accepts input only up to the declared end: trailing bytes after
// the last event are an error, never silently ignored, so truncated-then-
// concatenated or padded files cannot masquerade as well-formed traces.

const (
	magic    = "HWKT"
	version1 = 1
	version2 = 2
)

// Options selects the trace encoding.
type Options struct {
	// Version is 0 or 2, the only format written; any other value is an
	// error.
	Version int
	// Compress flate-compresses the v2 blocks.
	Compress bool
}

// check rejects a Version the encoders cannot write.
func (o Options) check() error {
	if o.Version != 0 && o.Version != version2 {
		return fmt.Errorf("trace: cannot encode format v%d (only v2 is written)", o.Version)
	}
	return nil
}

var (
	errBadMagic      = errors.New("trace: bad magic (not a HawkSet trace file)")
	errMissingFrame0 = errors.New("trace: site table missing reserved frame 0")
)

// Decoding limits. Counts in the header are untrusted varints: a corrupt or
// malicious file can claim 2^64 sites or events, so no count is trusted for
// allocation — preallocation is capped and the real length is whatever the
// stream actually delivers before EOF.
const (
	// maxSites bounds the site table. Each decoded site consumes at least
	// three input bytes, so this also bounds header-driven looping.
	maxSites = 1 << 24
	// maxEventPrealloc caps a v1 segment's event preallocation; longer
	// segments grow by append, paying only for events actually present.
	maxEventPrealloc = 1 << 20
	// maxString bounds a single decoded string (file or function name).
	maxString = 1 << 20
)

// Encode writes the trace in format v2, uncompressed.
func Encode(w io.Writer, t *Trace) error {
	return EncodeWith(w, t, Options{})
}

// EncodeWith writes the trace in format v2 with the selected options.
func EncodeWith(w io.Writer, t *Trace, o Options) error {
	enc, err := NewEncoder(w, t.Sites, o)
	if err != nil {
		return err
	}
	for e := range t.Events() {
		if err := enc.Write(e); err != nil {
			return err
		}
	}
	return enc.Close()
}

// Decode reads a binary trace in either format version, requiring the input
// to end exactly after the last declared event: it appends what a Decoder
// yields until Next reports io.EOF.
func Decode(r io.Reader) (*Trace, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Sites: d.Sites()}
	for {
		e, err := d.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", t.Len(), err)
		}
		t.Append(e)
	}
}

// Decoder streams a binary trace: the header and site table are read by
// NewDecoder, then Next yields one event at a time, so a trace can be fed
// straight into an online analysis (hawkset.Stream) without materializing
// the event slice. Next returns io.EOF only after verifying the input ends
// where the format says it ends (declared count for v1, terminator for v2).
type Decoder struct {
	br      *bufio.Reader
	version int
	sites   *sites.Table

	// v1 state.
	declared  uint64 // v1: events promised by the header (0 for v2)
	seen      uint64
	siteLimit sites.ID

	// v2 state.
	blocks *blockReader

	done bool
}

// NewDecoder reads the header and site table. The input is untrusted; every
// count is bounded before allocation.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := bufio.NewReader(r)
	var mg [4]byte
	if _, err := io.ReadFull(br, mg[:]); err != nil {
		return nil, err
	}
	if string(mg[:]) != magic {
		return nil, errBadMagic
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	d := &Decoder{br: br, version: int(v)}
	var compress bool
	switch v {
	case version1:
	case version2:
		flags, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if flags&^flagFlate != 0 {
			return nil, fmt.Errorf("trace: unknown v2 header flags %#02x", flags)
		}
		compress = flags&flagFlate != 0
	default:
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	nsites, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nsites > maxSites {
		return nil, fmt.Errorf("trace: implausible site count %d (corrupt header?)", nsites)
	}
	d.sites = sites.NewTable()
	for i := uint64(0); i < nsites; i++ {
		f, err := decodeFrame(br)
		if err != nil {
			return nil, fmt.Errorf("trace: site %d: %w", i+1, err)
		}
		d.sites.Append(f)
	}
	// IDs are validated against the decoded table: nsites frames plus the
	// reserved ID 0 — analyses index the site table without re-checking.
	d.siteLimit = sites.ID(nsites + 1)
	switch v {
	case version1:
		if d.declared, err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
	case version2:
		d.blocks = newBlockReader(br, compress, d.siteLimit)
	}
	return d, nil
}

// Version reports the decoded format version (1 or 2).
func (d *Decoder) Version() int { return d.version }

// Sites returns the decoded site table (complete after NewDecoder).
func (d *Decoder) Sites() *sites.Table { return d.sites }

// Next returns the next event, or io.EOF after the last one. Before
// reporting io.EOF the decoder requires the underlying input to be
// exhausted: a trace followed by trailing bytes — a truncated file
// concatenated with another, corruption past the declared count — is a
// decode error, not a silent success.
func (d *Decoder) Next() (Event, error) {
	if d.done {
		return Event{}, io.EOF
	}
	switch d.version {
	case version1:
		if d.seen == d.declared {
			if err := d.requireEOF(); err != nil {
				return Event{}, err
			}
			return Event{}, io.EOF
		}
		e, err := decodeEvent(d.br, d.siteLimit)
		if err != nil {
			return Event{}, err
		}
		d.seen++
		return e, nil
	default: // version2
		e, err := d.blocks.next()
		if err == io.EOF {
			if err := d.requireEOF(); err != nil {
				return Event{}, err
			}
			return Event{}, io.EOF
		}
		return e, err
	}
}

// requireEOF verifies no input remains, then marks the decoder finished.
func (d *Decoder) requireEOF() error {
	if _, err := d.br.ReadByte(); err != io.EOF {
		if err != nil {
			return err
		}
		return errors.New("trace: trailing data after final event")
	}
	d.done = true
	return nil
}

// decodeFrame parses one site frame (file, line, func).
func decodeFrame(br *bufio.Reader) (sites.Frame, error) {
	file, err := getString(br)
	if err != nil {
		return sites.Frame{}, err
	}
	line, err := binary.ReadUvarint(br)
	if err != nil {
		return sites.Frame{}, err
	}
	if line > math.MaxInt32 {
		return sites.Frame{}, fmt.Errorf("line %d out of range", line)
	}
	fn, err := getString(br)
	if err != nil {
		return sites.Frame{}, err
	}
	return sites.Frame{File: file, Line: int(line), Func: fn}, nil
}

func decodeEvent(br *bufio.Reader, siteLimit sites.ID) (Event, error) {
	var e Event
	k, err := br.ReadByte()
	if err != nil {
		return e, err
	}
	e.Kind = Kind(k)
	tid, err := binary.ReadUvarint(br)
	if err != nil {
		return e, err
	}
	if tid > math.MaxInt32 {
		return e, fmt.Errorf("thread ID %d out of range", tid)
	}
	e.TID = int32(tid)
	site, err := binary.ReadUvarint(br)
	if err != nil {
		return e, err
	}
	if site >= uint64(siteLimit) {
		return e, fmt.Errorf("site ID %d out of range (table has %d frames)", site, siteLimit)
	}
	e.Site = sites.ID(site)
	switch e.Kind {
	case KStore, KLoad, KNTStore, KAlloc:
		if e.Addr, err = binary.ReadUvarint(br); err != nil {
			return e, err
		}
		sz, err := binary.ReadUvarint(br)
		if err != nil {
			return e, err
		}
		if sz > math.MaxUint32 {
			return e, fmt.Errorf("access size %d out of range", sz)
		}
		e.Size = uint32(sz)
	case KFlush:
		if e.Addr, err = binary.ReadUvarint(br); err != nil {
			return e, err
		}
	case KFence:
	case KLockAcq, KLockRel:
		if e.Lock, err = binary.ReadUvarint(br); err != nil {
			return e, err
		}
	case KThreadCreate, KThreadJoin:
		kid, err := binary.ReadUvarint(br)
		if err != nil {
			return e, err
		}
		if kid > math.MaxInt32 {
			return e, fmt.Errorf("thread ID %d out of range", kid)
		}
		e.Kid = int32(kid)
	default:
		return e, fmt.Errorf("unknown kind %d", k)
	}
	return e, nil
}

func putUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	bw.Write(buf[:n]) //nolint:errcheck // bufio defers errors to Flush
}

func putString(bw *bufio.Writer, s string) {
	putUvarint(bw, uint64(len(s)))
	bw.WriteString(s) //nolint:errcheck // bufio defers errors to Flush
}

func getString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > maxString {
		return "", fmt.Errorf("trace: string length %d too large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
