package trace

// Trace format v2: the columnar block codec.
//
// A row of one varint per event field (the retired format v1) costs ~6
// bytes per event on a 100k-op trace, and decoding it spends its time in
// per-byte bufio varint reads. v2 exploits the structure the
// instrumentation gives every trace — threads run in cooperative stretches,
// consecutive accesses from one thread touch nearby addresses, and most
// events repeat the previous event's site and size — with three mechanisms:
//
//   - TID run-length coding: events are grouped into runs of consecutive
//     events from one thread (tid uvarint, count uvarint), so the thread ID
//     is paid once per scheduling stretch instead of once per event.
//   - Per-thread delta coding: Addr/Site/Lock/Kid are encoded as zigzag
//     varints of the difference from the same thread's previous value. A
//     packed tag byte carries the kind (low 4 bits) plus same-as-last flags
//     (site, size) that elide the field entirely.
//   - Columnar blocks: events are framed into ~64 KiB blocks, and within a
//     block each field lives in its own stream — run headers, tag bytes,
//     site deltas, addr deltas, sizes, lock deltas, kid deltas. Homogeneous
//     streams decode in tight per-field loops and compress far better than
//     interleaved bytes (the tag and TID streams are extremely repetitive).
//     Each block carries an event count, raw/stored lengths, and a CRC-32
//     of the raw payload; per-thread delta state resets at block
//     boundaries, so every block is independently decodable and corruption
//     is detected block-locally. Blocks are optionally flate-compressed
//     (header flag, stdlib only).
//
// A zero-event "block" terminates the stream and carries the total event
// count as a cross-check; the file/segment must end immediately after it.
//
// File layout (after the shared "HWKT" magic):
//
//	version uvarint        2
//	flags   byte           bit0 = blocks are flate-compressed
//	nsites  uvarint        site frames (encode.go)
//	sites   nsites × frame
//	blocks  until terminator:
//	  nevents   uvarint    events in this block (0 = terminator)
//	  rawLen    uvarint    raw (uncompressed) payload bytes
//	  storedLen uvarint    stored payload bytes (= rawLen when uncompressed)
//	  crc       4 bytes    CRC-32 (IEEE) of the raw payload, little-endian
//	  payload   storedLen bytes
//	terminator:
//	  nevents = 0 uvarint, then total-events uvarint; then EOF
//
// Block payload (raw):
//
//	nruns  uvarint         TID runs in this block (≥1)
//	len[7] uvarint × 7     byte length of each stream, in order; the
//	                       lengths plus this header sum to rawLen exactly
//	runs   stream 0        nruns × (tid uvarint, count uvarint), counts ≥1
//	                       and summing to nevents
//	tags   stream 1        one byte per event: kind | 0x10 sameSite |
//	                       0x20 sameSize (so len = nevents)
//	sites  stream 2        zigzag Δ site per event without sameSite
//	addrs  stream 3        zigzag Δ addr per store/load/ntstore/alloc/flush
//	sizes  stream 4        size uvarint per access without sameSize
//	locks  stream 5        zigzag Δ lock per lockacq/lockrel
//	kids   stream 6        zigzag Δ kid per create/join
//
// Everything decoded is untrusted: lengths and counts are capped before
// allocation, stream lengths must tile the payload exactly and every stream
// must be fully consumed, CRC mismatches and tag bits that do not apply to
// the kind are errors, and all decoded IDs are range-checked, so a trace
// the decoder accepts is internally consistent.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"hawkset/internal/sites"
)

const (
	// blockTarget is the encoder's raw-payload flush threshold.
	blockTarget = 64 << 10
	// maxBlockRaw bounds a decoded block's claimed raw payload: the encoder
	// never exceeds blockTarget plus one event, so anything near this cap is
	// corrupt — but a generous bound keeps the format forward-compatible
	// with larger encoder blocks.
	maxBlockRaw = 1 << 20
	// maxBlockStored bounds the stored payload; flate can expand
	// incompressible input slightly.
	maxBlockStored = maxBlockRaw + maxBlockRaw/64 + 64
)

// v2 header flag bits.
const flagFlate = 0x01

// Packed tag byte: kind in the low nibble, field-elision flags above it.
const (
	tagKindMask = 0x0f
	tagSameSite = 0x10 // site equals the thread's previous event's site
	tagSameSize = 0x20 // size equals the thread's previous access's size
)

// The per-block stream count and their indexes into the length header.
const (
	streamRuns = iota
	streamTags
	streamSites
	streamAddrs
	streamSizes
	streamLocks
	streamKids
	numStreams
)

// zigzag maps signed deltas onto small uvarints (LSB = sign).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvAt reads one uvarint at b[p:], returning the value and the position
// after it, or a negative position on truncation/overflow. Single-byte
// values — the overwhelmingly common case for deltas — take an inlinable
// fast path; everything else falls through to uvAtSlow.
func uvAt(b []byte, p int) (uint64, int) {
	if uint(p) < uint(len(b)) && b[p] < 0x80 {
		return uint64(b[p]), p + 1
	}
	return uvAtSlow(b, p)
}

func uvAtSlow(b []byte, p int) (uint64, int) {
	if p >= len(b) {
		return 0, -1
	}
	v, n := binary.Uvarint(b[p:])
	if n <= 0 {
		return 0, -1
	}
	return v, p + n
}

// threadState is the per-thread delta context. It resets at every block
// boundary so blocks decode independently.
type threadState struct {
	site sites.ID
	addr uint64
	size uint32
	lock uint64
	kid  int32
}

// threadStates holds the per-thread delta contexts, dense-indexed by TID.
// Real traces number threads from zero, so the dense slice is tiny and a
// lookup is a bounds check — the per-run map lookup this replaces dominated
// decode on traces with short scheduling stretches. Pathological IDs (the
// format allows any int32) fall back to a map rather than sizing the slice.
type threadStates struct {
	dense  []threadState
	sparse map[int32]threadState
}

// denseTIDLimit bounds the dense slice (and the per-block reset cost) at
// 4096 threads; beyond that the sparse map takes over.
const denseTIDLimit = 1 << 12

func (ts *threadStates) load(tid int32) threadState {
	if int(tid) < len(ts.dense) {
		return ts.dense[tid]
	}
	if tid >= denseTIDLimit {
		return ts.sparse[tid]
	}
	return threadState{}
}

// ref returns a pointer to the dense context for tid, growing the slice on
// first sight. Only valid for tid < denseTIDLimit; the pointer is good until
// the next ref call (growth reallocates). The decode hot loop mutates the
// context in place through it, skipping the load/store struct copies that
// dominate run-switch-heavy traces.
func (ts *threadStates) ref(tid int) *threadState {
	if tid >= len(ts.dense) {
		ts.dense = append(ts.dense, make([]threadState, tid+1-len(ts.dense))...)
	}
	return &ts.dense[tid]
}

func (ts *threadStates) store(tid int32, st threadState) {
	if tid < denseTIDLimit {
		if int(tid) >= len(ts.dense) {
			ts.dense = append(ts.dense, make([]threadState, int(tid)+1-len(ts.dense))...)
		}
		ts.dense[tid] = st
		return
	}
	if ts.sparse == nil {
		ts.sparse = make(map[int32]threadState)
	}
	ts.sparse[tid] = st
}

// reset zeroes all contexts (block boundary), keeping the dense capacity.
func (ts *threadStates) reset() {
	clear(ts.dense)
	clear(ts.sparse)
}

// ---------------------------------------------------------------- encoding

// blockWriter streams events into framed v2 blocks. It is the shared core
// of the file Encoder and the v2 segment codec: events go in one at a time,
// framed blocks come out on w, and nothing is ever buffered beyond the
// current block.
type blockWriter struct {
	w        io.Writer
	compress bool

	// One buffer per columnar stream of the open block.
	streams [numStreams][]byte
	nruns   int

	runTID  int32
	runLen  uint64
	cur     threadState // delta state of the open run's thread
	haveCur bool

	blockEvents uint64
	total       uint64

	state threadStates

	asm  []byte // block assembly scratch (header + streams)
	comp bytes.Buffer
	fw   *flate.Writer
}

func newBlockWriter(w io.Writer, compress bool) *blockWriter {
	return &blockWriter{w: w, compress: compress}
}

// streamBytes is the raw payload size the open block has accumulated.
func (bw *blockWriter) streamBytes() int {
	n := 0
	for _, s := range bw.streams {
		n += len(s)
	}
	return n
}

// write appends one event to the open run, flushing a block when the target
// size is reached.
func (bw *blockWriter) write(e Event) error {
	if e.TID < 0 || e.Kid < 0 || e.Site < 0 {
		return fmt.Errorf("trace: negative ID in event (tid=%d kid=%d site=%d)", e.TID, e.Kid, e.Site)
	}
	if !bw.haveCur || e.TID != bw.runTID {
		bw.closeRun()
		bw.runTID = e.TID
		bw.cur = bw.state.load(e.TID)
		bw.haveCur = true
	}
	st := &bw.cur

	tag := byte(e.Kind)
	sameSite := e.Site == st.site
	if sameSite {
		tag |= tagSameSite
	}
	isAccess := false
	switch e.Kind {
	case KStore, KLoad, KNTStore, KAlloc:
		isAccess = true
		if e.Size == st.size {
			tag |= tagSameSize
		}
	case KFlush, KFence, KLockAcq, KLockRel, KThreadCreate, KThreadJoin:
	default:
		return fmt.Errorf("trace: cannot encode event kind %d", e.Kind)
	}

	bw.streams[streamTags] = append(bw.streams[streamTags], tag)
	if !sameSite {
		bw.streams[streamSites] = binary.AppendUvarint(bw.streams[streamSites], zigzag(int64(e.Site)-int64(st.site)))
		st.site = e.Site
	}
	switch e.Kind {
	case KStore, KLoad, KNTStore, KAlloc, KFlush:
		bw.streams[streamAddrs] = binary.AppendUvarint(bw.streams[streamAddrs], zigzag(int64(e.Addr-st.addr)))
		st.addr = e.Addr
		if isAccess && tag&tagSameSize == 0 {
			bw.streams[streamSizes] = binary.AppendUvarint(bw.streams[streamSizes], uint64(e.Size))
			st.size = e.Size
		}
	case KLockAcq, KLockRel:
		bw.streams[streamLocks] = binary.AppendUvarint(bw.streams[streamLocks], zigzag(int64(e.Lock-st.lock)))
		st.lock = e.Lock
	case KThreadCreate, KThreadJoin:
		bw.streams[streamKids] = binary.AppendUvarint(bw.streams[streamKids], zigzag(int64(e.Kid)-int64(st.kid)))
		st.kid = e.Kid
	}
	bw.runLen++
	bw.blockEvents++
	bw.total++

	if bw.streamBytes() >= blockTarget {
		return bw.flushBlock()
	}
	return nil
}

// closeRun appends the open run's header (tid, count) to the run stream and
// stores its thread's delta state back.
func (bw *blockWriter) closeRun() {
	if bw.runLen == 0 {
		return
	}
	bw.state.store(bw.runTID, bw.cur)
	bw.streams[streamRuns] = binary.AppendUvarint(bw.streams[streamRuns], uint64(bw.runTID))
	bw.streams[streamRuns] = binary.AppendUvarint(bw.streams[streamRuns], bw.runLen)
	bw.nruns++
	bw.runLen = 0
}

// flushBlock assembles, frames and writes the current block, then resets the
// per-thread delta state so the next block decodes independently.
func (bw *blockWriter) flushBlock() error {
	bw.closeRun()
	if bw.blockEvents == 0 {
		return nil
	}
	bw.asm = bw.asm[:0]
	bw.asm = binary.AppendUvarint(bw.asm, uint64(bw.nruns))
	for _, s := range bw.streams {
		bw.asm = binary.AppendUvarint(bw.asm, uint64(len(s)))
	}
	for _, s := range bw.streams {
		bw.asm = append(bw.asm, s...)
	}
	raw := bw.asm
	stored := raw
	if bw.compress {
		bw.comp.Reset()
		if bw.fw == nil {
			fw, err := flate.NewWriter(&bw.comp, flate.BestSpeed)
			if err != nil {
				return err
			}
			bw.fw = fw
		} else {
			bw.fw.Reset(&bw.comp)
		}
		if _, err := bw.fw.Write(raw); err != nil {
			return err
		}
		if err := bw.fw.Close(); err != nil {
			return err
		}
		stored = bw.comp.Bytes()
	}
	hdr := make([]byte, 0, 3*binary.MaxVarintLen64+4)
	hdr = binary.AppendUvarint(hdr, bw.blockEvents)
	hdr = binary.AppendUvarint(hdr, uint64(len(raw)))
	hdr = binary.AppendUvarint(hdr, uint64(len(stored)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(raw))
	if _, err := bw.w.Write(hdr); err != nil {
		return err
	}
	if _, err := bw.w.Write(stored); err != nil {
		return err
	}
	for i := range bw.streams {
		bw.streams[i] = bw.streams[i][:0]
	}
	bw.nruns = 0
	bw.blockEvents = 0
	bw.haveCur = false
	bw.state.reset()
	return nil
}

// finish flushes the last block and writes the terminator.
func (bw *blockWriter) finish() error {
	if err := bw.flushBlock(); err != nil {
		return err
	}
	trailer := make([]byte, 0, 1+binary.MaxVarintLen64)
	trailer = binary.AppendUvarint(trailer, 0)
	trailer = binary.AppendUvarint(trailer, bw.total)
	_, err := bw.w.Write(trailer)
	return err
}

// Encoder streams a v2 trace to w: the header and site table are written up
// front, events go out block by block as Write is called, and Close frames
// the terminator. Nothing proportional to the trace is held in memory, so
// arbitrarily long traces encode in O(block) space.
//
// The site table must be complete before NewEncoder runs — its frames are
// the header. That matches both producers: cmd/hawkset encodes after the
// instrumented run, and segments (which do interleave frames and events)
// carry their own incremental frame lists.
type Encoder struct {
	bw     *bufio.Writer
	blocks *blockWriter
	closed bool
}

// NewEncoder writes the v2 header and site table and returns the streaming
// encoder. It rejects any Options.Version other than 0 or 2.
func NewEncoder(w io.Writer, st *sites.Table, o Options) (*Encoder, error) {
	if err := o.check(); err != nil {
		return nil, err
	}
	frames := st.Frames()
	if len(frames) == 0 {
		return nil, errMissingFrame0
	}
	hdr := append(binary.AppendUvarint([]byte(magic), version2), o.flags())
	hdr = appendFrames(hdr, frames[1:])
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	return &Encoder{bw: bw, blocks: newBlockWriter(bw, o.Compress)}, nil
}

// Write appends one event to the stream.
func (e *Encoder) Write(ev Event) error {
	if e.closed {
		return errors.New("trace: encoder already closed")
	}
	return e.blocks.write(ev)
}

// Close flushes the final block, writes the terminator, and flushes the
// underlying writer. The encoder is unusable afterwards.
func (e *Encoder) Close() error {
	if e.closed {
		return errors.New("trace: encoder already closed")
	}
	e.closed = true
	if err := e.blocks.finish(); err != nil {
		return err
	}
	return e.bw.Flush()
}

// ---------------------------------------------------------------- decoding

// blockReader streams events out of a v2 block sequence, decoding one whole
// block at a time into a reused buffer. It is the shared decode core of the
// file Decoder and DecodeSegment: fill decodes the next block in bulk, next
// wraps it with a one-event-at-a-time view. Both return io.EOF only after a
// well-formed terminator; the caller enforces that the underlying input
// ends there.
type blockReader struct {
	br        *bufio.Reader
	compress  bool
	siteLimit sites.ID

	events []Event // decoded events of the current block (reused)
	idx    int     // next event for the streaming view

	state   threadStates
	claimed uint64 // events promised by block headers so far
	done    bool

	raw    []byte         // current block payload, decompressed
	stored []byte         // scratch for the stored payload
	fr     io.ReadCloser  // flate reader, reused via flate.Resetter
	frRst  flate.Resetter // same reader, reset interface
}

func newBlockReader(br *bufio.Reader, compress bool, siteLimit sites.ID) *blockReader {
	return &blockReader{br: br, compress: compress, siteLimit: siteLimit}
}

// next yields the next event, loading blocks as needed.
func (r *blockReader) next() (Event, error) {
	for r.idx >= len(r.events) {
		if err := r.fill(); err != nil {
			return Event{}, err
		}
	}
	e := r.events[r.idx]
	r.idx++
	return e, nil
}

// fill reads the next block frame and decodes it into r.events, or returns
// io.EOF after a well-formed terminator. The event storage is sized only
// after the payload has decompressed and passed its CRC check, so a corrupt
// frame never costs more than its own bytes.
func (r *blockReader) fill() error {
	r.events = r.events[:0]
	r.idx = 0
	if r.done {
		return io.EOF
	}
	nev, rawLen, storedLen, crc, err := r.readFrameHeader()
	if err != nil {
		return err
	}
	if r.done {
		return io.EOF
	}
	if cap(r.stored) < storedLen {
		r.stored = make([]byte, storedLen)
	}
	r.stored = r.stored[:storedLen]
	if _, err := io.ReadFull(r.br, r.stored); err != nil {
		return fmt.Errorf("trace: truncated block payload: %w", noEOF(err))
	}
	raw, err := r.materialize(rawLen, r.stored, crc)
	if err != nil {
		return err
	}
	if cap(r.events) < nev {
		r.events = make([]Event, nev)
	}
	r.events = r.events[:nev]
	return r.decodeBlock(raw, r.events)
}

// noEOF maps a bare io.EOF to io.ErrUnexpectedEOF: inside a block frame,
// running out of input is truncation, never a clean end. The only io.EOF a
// blockReader emits is the one after a well-formed terminator.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readFrameHeader reads and validates one block frame header (the payload
// bytes follow on r.br) — or consumes the terminator, verifies its declared
// total against the block headers seen, and flags completion. On a
// terminator it returns all zeros with r.done set.
func (r *blockReader) readFrameHeader() (nev, rawLen, storedLen int, crc uint32, err error) {
	nev64, err := binary.ReadUvarint(r.br)
	if err != nil {
		// EOF here means the stream ended without a terminator: truncated.
		return 0, 0, 0, 0, fmt.Errorf("trace: truncated block stream: %w", noEOF(err))
	}
	if nev64 == 0 {
		declared, err := binary.ReadUvarint(r.br)
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("trace: truncated terminator: %w", noEOF(err))
		}
		if declared != r.claimed {
			return 0, 0, 0, 0, fmt.Errorf("trace: terminator declares %d events, blocks carry %d", declared, r.claimed)
		}
		r.done = true
		return 0, 0, 0, 0, nil
	}
	rawLen64, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("trace: truncated block header: %w", noEOF(err))
	}
	if rawLen64 > maxBlockRaw {
		return 0, 0, 0, 0, fmt.Errorf("trace: implausible block size %d (corrupt header?)", rawLen64)
	}
	if nev64 > rawLen64 {
		// Every event costs at least its tag byte, so this also bounds the
		// per-block event allocation by maxBlockRaw.
		return 0, 0, 0, 0, fmt.Errorf("trace: block claims %d events in %d bytes", nev64, rawLen64)
	}
	storedLen64, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("trace: truncated block header: %w", noEOF(err))
	}
	if storedLen64 > maxBlockStored {
		return 0, 0, 0, 0, fmt.Errorf("trace: implausible stored block size %d", storedLen64)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r.br, crcBuf[:]); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("trace: truncated block CRC: %w", noEOF(err))
	}
	r.claimed += nev64
	return int(nev64), int(rawLen64), int(storedLen64), binary.LittleEndian.Uint32(crcBuf[:]), nil
}

// materialize turns a stored payload into the raw payload: decompressing if
// the stream is flate-compressed (into a reused buffer, valid until the next
// call), and verifying the CRC either way.
func (r *blockReader) materialize(rawLen int, stored []byte, wantCRC uint32) ([]byte, error) {
	raw := stored
	if r.compress {
		if cap(r.raw) < rawLen {
			r.raw = make([]byte, rawLen)
		}
		r.raw = r.raw[:rawLen]
		if r.fr == nil {
			r.fr = flate.NewReader(bytes.NewReader(stored))
			r.frRst = r.fr.(flate.Resetter)
		} else if err := r.frRst.Reset(bytes.NewReader(stored), nil); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(r.fr, r.raw); err != nil {
			return nil, fmt.Errorf("trace: block decompression: %w", err)
		}
		// The compressed stream must end exactly at rawLen bytes.
		var one [1]byte
		if n, _ := r.fr.Read(one[:]); n != 0 {
			return nil, errors.New("trace: compressed block longer than declared raw size")
		}
		raw = r.raw
	} else if len(stored) != rawLen {
		return nil, fmt.Errorf("trace: uncompressed block stored %d bytes but declares %d raw", len(stored), rawLen)
	}
	if got := crc32.ChecksumIEEE(raw); got != wantCRC {
		return nil, fmt.Errorf("trace: block CRC mismatch (got %#08x, want %#08x)", got, wantCRC)
	}
	return raw, nil
}

// decodeBlock parses the columnar payload raw into dst, which must hold
// exactly the block's declared event count. The payload is untrusted: the
// stream lengths must tile it exactly, run counts must sum to the event
// count, and every stream must be consumed in full.
func (r *blockReader) decodeBlock(raw []byte, dst []Event) error {
	nev := len(dst)
	nruns64, pos := uvAt(raw, 0)
	if pos < 0 {
		return errors.New("trace: truncated block stream header")
	}
	if nruns64 == 0 || nruns64 > uint64(nev) {
		return fmt.Errorf("trace: block with %d events claims %d runs", nev, nruns64)
	}
	nruns := int(nruns64)
	var lens [numStreams]int
	need := 0
	for i := range lens {
		v, p := uvAt(raw, pos)
		if p < 0 {
			return errors.New("trace: truncated block stream header")
		}
		if v > maxBlockRaw {
			return fmt.Errorf("trace: implausible stream length %d", v)
		}
		lens[i] = int(v)
		need += int(v)
		pos = p
	}
	if pos+need != len(raw) {
		return fmt.Errorf("trace: block streams sum to %d bytes, payload has %d", pos+need, len(raw))
	}
	var str [numStreams][]byte
	for i, n := range lens {
		str[i] = raw[pos : pos+n]
		pos += n
	}
	if len(str[streamTags]) != nev {
		return fmt.Errorf("trace: tag stream has %d bytes for %d events", len(str[streamTags]), nev)
	}

	r.state.reset()

	runs, tags := str[streamRuns], str[streamTags]
	sitesS, addrs, sizesS, locks, kids := str[streamSites], str[streamAddrs], str[streamSizes], str[streamLocks], str[streamKids]
	rp, sp, ap, zp, lp, kp := 0, 0, 0, 0, 0, 0
	ei := 0
	for ri := 0; ri < nruns; ri++ {
		// Run headers get the same hand-inlined one-byte fast path as the
		// delta streams: thread-churny traces carry nearly one header per
		// event, and both fields are almost always a single byte.
		var tid64, cnt64 uint64
		if uint(rp) < uint(len(runs)) && runs[rp] < 0x80 {
			tid64 = uint64(runs[rp])
			rp++
		} else if tid64, rp = uvAtSlow(runs, rp); rp < 0 {
			return errors.New("trace: truncated run header")
		}
		if tid64 > math.MaxInt32 {
			return fmt.Errorf("trace: thread ID %d out of range", tid64)
		}
		if uint(rp) < uint(len(runs)) && runs[rp] < 0x80 {
			cnt64 = uint64(runs[rp])
			rp++
		} else if cnt64, rp = uvAtSlow(runs, rp); rp < 0 {
			return errors.New("trace: truncated run header")
		}
		if cnt64 == 0 || cnt64 > uint64(nev-ei) {
			return fmt.Errorf("trace: run of %d events exceeds block remainder %d", cnt64, nev-ei)
		}
		tid := int32(tid64)
		// Runs average barely over an event on thread-churny traces, so the
		// per-run context switch is as hot as the per-event work: dense TIDs
		// mutate their context in place through a pointer, sparse ones stage
		// through a stack copy.
		var st *threadState
		if tid64 < denseTIDLimit {
			st = r.state.ref(int(tid64))
		} else {
			tmp := r.state.load(tid)
			st = &tmp
		}
		// Delta state in locals for the duration of the run; the one-byte
		// varint fast path is written out inline at each stream read — uvAt
		// is beyond the compiler's inlining budget, and these reads are the
		// hottest code in the decoder.
		site, addr, size, lock, kid := st.site, st.addr, st.size, st.lock, st.kid
		for end := ei + int(cnt64); ei < end; ei++ {
			tag := tags[ei]
			kind := Kind(tag & tagKindMask)
			if tag&tagSameSite == 0 {
				var d uint64
				if uint(sp) < uint(len(sitesS)) && sitesS[sp] < 0x80 {
					d = uint64(sitesS[sp])
					sp++
				} else if d, sp = uvAtSlow(sitesS, sp); sp < 0 {
					return errors.New("trace: truncated site stream")
				}
				s := int64(site) + unzigzag(d)
				if s < 0 || s >= int64(r.siteLimit) {
					return fmt.Errorf("trace: site ID %d out of range (table has %d frames)", s, r.siteLimit)
				}
				site = sites.ID(s)
			}
			e := &dst[ei]
			*e = Event{Kind: kind, TID: tid, Site: site}
			switch kind {
			case KLoad, KStore, KNTStore, KAlloc:
				// Address deltas get a two-byte fast path on top of the
				// one-byte one: scattered heaps (zipf-bucketed allocations)
				// put most deltas in the 2–3 byte range, where the generic
				// Uvarint loop is the single hottest slow path. When the
				// one-byte test fails with ap in range, addrs[ap] >= 0x80
				// is implied, so the two-byte arm needs no re-check.
				var d uint64
				if uint(ap) < uint(len(addrs)) && addrs[ap] < 0x80 {
					d = uint64(addrs[ap])
					ap++
				} else if uint(ap+1) < uint(len(addrs)) && addrs[ap+1] < 0x80 {
					d = uint64(addrs[ap]&0x7f) | uint64(addrs[ap+1])<<7
					ap += 2
				} else if d, ap = uvAtSlow(addrs, ap); ap < 0 {
					return errors.New("trace: truncated addr stream")
				}
				addr += uint64(unzigzag(d))
				if tag&tagSameSize == 0 {
					var sz uint64
					if uint(zp) < uint(len(sizesS)) && sizesS[zp] < 0x80 {
						sz = uint64(sizesS[zp])
						zp++
					} else if sz, zp = uvAtSlow(sizesS, zp); zp < 0 {
						return errors.New("trace: truncated size stream")
					}
					if sz > math.MaxUint32 {
						return fmt.Errorf("trace: access size %d out of range", sz)
					}
					size = uint32(sz)
				}
				e.Addr, e.Size = addr, size
			case KFlush:
				if tag&tagSameSize != 0 {
					return fmt.Errorf("trace: tag %#02x carries flags invalid for kind %s", tag, kind)
				}
				d, p := uvAt(addrs, ap)
				if p < 0 {
					return errors.New("trace: truncated addr stream")
				}
				ap = p
				addr += uint64(unzigzag(d))
				e.Addr = addr
			case KFence:
				if tag&tagSameSize != 0 {
					return fmt.Errorf("trace: tag %#02x carries flags invalid for kind %s", tag, kind)
				}
			case KLockAcq, KLockRel:
				if tag&tagSameSize != 0 {
					return fmt.Errorf("trace: tag %#02x carries flags invalid for kind %s", tag, kind)
				}
				// Lock addresses scatter like data addresses (per-bucket
				// locks), so the lock stream shares the addr stream's
				// two-byte fast path.
				var d uint64
				if uint(lp) < uint(len(locks)) && locks[lp] < 0x80 {
					d = uint64(locks[lp])
					lp++
				} else if uint(lp+1) < uint(len(locks)) && locks[lp+1] < 0x80 {
					d = uint64(locks[lp]&0x7f) | uint64(locks[lp+1])<<7
					lp += 2
				} else if d, lp = uvAtSlow(locks, lp); lp < 0 {
					return errors.New("trace: truncated lock stream")
				}
				lock += uint64(unzigzag(d))
				e.Lock = lock
			case KThreadCreate, KThreadJoin:
				if tag&tagSameSize != 0 {
					return fmt.Errorf("trace: tag %#02x carries flags invalid for kind %s", tag, kind)
				}
				d, p := uvAt(kids, kp)
				if p < 0 {
					return errors.New("trace: truncated kid stream")
				}
				kp = p
				k := int64(kid) + unzigzag(d)
				if k < 0 || k > math.MaxInt32 {
					return fmt.Errorf("trace: thread ID %d out of range", k)
				}
				kid = int32(k)
				e.Kid = kid
			default:
				return fmt.Errorf("trace: unknown kind %d", kind)
			}
		}
		st.site, st.addr, st.size, st.lock, st.kid = site, addr, size, lock, kid
		if tid >= denseTIDLimit {
			r.state.store(tid, *st)
		}
	}
	if ei != nev {
		return fmt.Errorf("trace: runs deliver %d events, block declares %d", ei, nev)
	}
	// Every stream must be consumed exactly: leftover bytes are smuggled
	// garbage the CRC cannot distinguish from data.
	for i, cursor := range [numStreams]int{rp, nev, sp, ap, zp, lp, kp} {
		if cursor != lens[i] {
			return fmt.Errorf("trace: stream %d has %d bytes unconsumed", i, lens[i]-cursor)
		}
	}
	return nil
}
