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

// Binary trace format v2, the only one the package writes or reads:
//
//	magic   "HWKT"            4 bytes
//	version uvarint           2
//	flags   byte              bit0 = blocks are flate-compressed
//	nsites  uvarint           number of site frames (excluding reserved 0)
//	sites   nsites × frame    frame = file string, line uvarint, func string
//	blocks                    delta-encoded event blocks (codec_v2.go)
//	strings are uvarint length + bytes
//
// Any other version is an error, the retired v1 included. The committed
// fixtures (testdata/golden_v2*) pin the layout in both directions: each
// decodes to the trace it holds, and the encoder writes that trace back to
// the same bytes. The format exists so traces can be captured once
// (cmd/hawkset -trace-out) and analyzed repeatedly or inspected with
// cmd/tracedump, mirroring the decoupling between HawkSet's instrumentation
// and analysis stages. A decoder accepts input only up to the declared end:
// trailing bytes after the terminator are an error, never silently ignored,
// so truncated-then-concatenated or padded files cannot masquerade as
// well-formed traces.

const (
	magic    = "HWKT"
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

// flags is the header flags byte the options select.
func (o Options) flags() byte {
	if o.Compress {
		return flagFlate
	}
	return 0
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
// malicious file can claim 2^64 sites or a string of any length, so every
// count is bounded before allocation. Block headers carry their own caps
// (codec_v2.go).
const (
	// maxSites bounds the site table. Each decoded site consumes at least
	// three input bytes, so this also bounds header-driven looping.
	maxSites = 1 << 24
	// maxString bounds a single decoded string (file or function name).
	maxString = 1 << 20
)

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

// Decode reads a binary trace, requiring the input to end exactly after the
// terminator: it appends what a Decoder yields until Next reports io.EOF.
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
// right after the terminator.
type Decoder struct {
	br     *bufio.Reader
	sites  *sites.Table
	blocks *blockReader
	done   bool
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
	if v != version2 {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if flags&^flagFlate != 0 {
		return nil, fmt.Errorf("trace: unknown v2 header flags %#02x", flags)
	}
	nsites, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nsites > maxSites {
		return nil, fmt.Errorf("trace: implausible site count %d (corrupt header?)", nsites)
	}
	d := &Decoder{br: br, sites: sites.NewTable()}
	for i := uint64(0); i < nsites; i++ {
		f, err := decodeFrame(br)
		if err != nil {
			return nil, fmt.Errorf("trace: site %d: %w", i+1, err)
		}
		d.sites.Append(f)
	}
	// IDs are validated against the decoded table: nsites frames plus the
	// reserved ID 0 — analyses index the site table without re-checking.
	d.blocks = newBlockReader(br, flags&flagFlate != 0, sites.ID(nsites+1))
	return d, nil
}

// Sites returns the decoded site table (complete after NewDecoder).
func (d *Decoder) Sites() *sites.Table { return d.sites }

// Next returns the next event, or io.EOF after the last one. Before
// reporting io.EOF the decoder requires the underlying input to be
// exhausted: a trace followed by trailing bytes — a truncated file
// concatenated with another, corruption past the terminator — is a decode
// error, not a silent success.
func (d *Decoder) Next() (Event, error) {
	if d.done {
		return Event{}, io.EOF
	}
	e, err := d.blocks.next()
	if err == io.EOF {
		if err := d.requireEOF(); err != nil {
			return Event{}, err
		}
	}
	return e, err
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
