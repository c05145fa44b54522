package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hawkset/internal/sites"
)

// bigTrace builds a multi-block trace (> 64 KiB of raw v2 payload) with the
// mixed per-thread locality real instrumentation produces. Its first 2000
// events are frozen in testdata/golden_v2_big.hwkt, so its shape must not
// change.
func bigTrace(n int) *Trace {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	siteIDs := make([]sites.ID, 40)
	for i := range siteIDs {
		siteIDs[i] = tr.Sites.Named("site" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	addrs := make([]uint64, 8)
	for tr.Len() < n {
		tid := int32(rng.Intn(8))
		// A scheduling stretch: one thread runs for a while.
		for burst := rng.Intn(50) + 1; burst > 0 && tr.Len() < n; burst-- {
			site := siteIDs[rng.Intn(len(siteIDs))]
			switch rng.Intn(10) {
			case 0:
				tr.Append(Event{Kind: KLockAcq, TID: tid, Lock: uint64(rng.Intn(8)), Site: site})
			case 1:
				tr.Append(Event{Kind: KLockRel, TID: tid, Lock: uint64(rng.Intn(8)), Site: site})
			case 2:
				tr.Append(Event{Kind: KFlush, TID: tid, Addr: addrs[tid] / 64 * 64, Site: site})
				tr.Append(Event{Kind: KFence, TID: tid, Site: site})
			case 3:
				tr.Append(Event{Kind: KLoad, TID: tid, Addr: addrs[tid], Size: 8, Site: site})
			default:
				addrs[tid] += uint64(rng.Intn(256))
				tr.Append(Event{Kind: KStore, TID: tid, Addr: addrs[tid], Size: uint32(1 << rng.Intn(4)), Site: site})
			}
		}
	}
	return tr
}

// encodedSamples returns the committed trace files, and the sample trace as
// a v2-flate file, each with a name.
func encodedSamples(tb testing.TB) []namedBytes {
	tb.Helper()
	var flated bytes.Buffer
	if err := EncodeWith(&flated, sampleTrace(), Options{Compress: true}); err != nil {
		tb.Fatal(err)
	}
	out := []namedBytes{{"v2-flate", flated.Bytes()}}
	for _, fx := range fileFixtures {
		out = append(out, namedBytes{fx.file, readFixture(tb, fx.file)})
	}
	return out
}

type namedBytes struct {
	name string
	raw  []byte
}

// TestDecodeRejectsTrailingGarbage is the regression for the bug where
// Decode stopped reading at the declared event count and silently accepted
// whatever followed. Decode must require EOF after the terminator.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	for _, s := range encodedSamples(t) {
		name, clean := s.name, s.raw
		if _, err := Decode(bytes.NewReader(clean)); err != nil {
			t.Fatalf("%s: clean trace rejected: %v", name, err)
		}
		for _, tail := range [][]byte{{0x00}, {0xFF}, []byte("HWKT")} {
			dirty := append(append([]byte(nil), clean...), tail...)
			if _, err := Decode(bytes.NewReader(dirty)); err == nil {
				t.Fatalf("%s: trace with %d trailing bytes accepted", name, len(tail))
			}
		}
	}
}

// TestStreamingEncodeDecode drives the streaming pair directly: Write one
// event at a time, Next them back out, never materializing a []Event. The
// trace spans several chunks, and a bulk Decode of the same bytes, which
// writes blocks straight into chunks, must return the same events.
func TestStreamingEncodeDecode(t *testing.T) {
	tr := bigTrace(15*firstChunk + 2*maxChunk + 3)
	all := events(tr)
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		enc, err := NewEncoder(&buf, tr.Sites, Options{Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		for e := range tr.Events() {
			if err := enc.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		if err := enc.Close(); err == nil {
			t.Fatal("second Close accepted")
		}

		dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range all {
			got, err := dec.Next()
			if err != nil {
				t.Fatalf("event %d (compress=%v): %v", i, compress, err)
			}
			if got != want {
				t.Fatalf("event %d: got %v want %v", i, got, want)
			}
		}
		if _, err := dec.Next(); err != io.EOF {
			t.Fatalf("after last event: %v, want io.EOF", err)
		}
		if _, err := dec.Next(); err != io.EOF {
			t.Fatalf("Next after EOF: %v, want io.EOF", err)
		}

		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Decode (compress=%v): %v", compress, err)
		}
		if got.Len() != len(all) || !slices.Equal(events(got), all) {
			t.Fatalf("Decode (compress=%v) returned %d events that differ from the %d written", compress, got.Len(), len(all))
		}
	}
}

// TestV2CorruptionDetected: every single-byte corruption of a v2 trace that
// still decodes must decode to the same events — in practice the CRC or a
// structural check rejects it; what must never happen is a silent
// mis-decode into different events.
func TestV2CorruptionDetected(t *testing.T) {
	tr := sampleTrace()
	raw := readFixture(t, "golden_v2.hwkt")
	rejected := 0
	for i := range raw {
		for _, flip := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), raw...)
			mut[i] ^= flip
			got, err := Decode(bytes.NewReader(mut))
			if err != nil {
				rejected++
				continue
			}
			if !reflect.DeepEqual(events(got), events(tr)) {
				t.Fatalf("flipping byte %d (mask %#02x) silently mis-decoded the event payload", i, flip)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no corruption was ever rejected; the CRC is not being checked")
	}
}

// TestV2UnknownFlagsRejected: reserved header flag bits must fail loudly so
// they stay available for future format extensions.
func TestV2UnknownFlagsRejected(t *testing.T) {
	raw := readFixture(t, "golden_v2.hwkt")
	// Layout: "HWKT" (4) + version uvarint (1 byte for 2) + flags byte.
	raw[5] |= 0x80
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("unknown v2 header flag accepted")
	}
}

// TestSegmentV1GoldenBytes: the bytes of a v1 segment, as pmcheckd segment
// logs written before segments moved to v2 hold them, are rejected by both
// segment readers rather than misread.
func TestSegmentV1GoldenBytes(t *testing.T) {
	enc, err := hex.DecodeString("070104612e676f010166010101014008")
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := PeekSegmentSeq(enc); err == nil {
		t.Fatalf("PeekSegmentSeq read seq %d from a v1 segment", seq)
	}
	if seg, err := DecodeSegment(enc, 1); err == nil {
		t.Fatalf("v1 segment decoded to %+v", seg)
	}
}

// TestDecodeRejectsV1: a v1 file header, here that of a complete empty v1
// trace, fails NewDecoder with an error that names the version.
func TestDecodeRejectsV1(t *testing.T) {
	_, err := NewDecoder(bytes.NewReader([]byte("HWKT\x01\x00\x00")))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("NewDecoder on a v1 header: %v, want an error naming version 1", err)
	}
}

// TestSegmentCrossVersion: the plain and flate encodings of a segment both
// decode to it, and PeekSegmentSeq reads the right sequence number out of
// each without full decoding.
func TestSegmentCrossVersion(t *testing.T) {
	tr := bigTrace(5000)
	seg := &Segment{Seq: 42, Frames: tr.Sites.Frames()[1:], Events: events(tr)}
	for _, o := range []Options{{}, {Compress: true}} {
		enc, err := EncodeSegmentWith(nil, seg, o)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := PeekSegmentSeq(enc)
		if err != nil || seq != 42 {
			t.Fatalf("compress=%v: PeekSegmentSeq = %d, %v; want 42", o.Compress, seq, err)
		}
		dec, err := DecodeSegment(enc, 1)
		if err != nil {
			t.Fatalf("compress=%v: %v", o.Compress, err)
		}
		if !reflect.DeepEqual(dec, seg) {
			t.Fatalf("compress=%v: segment round trip differs", o.Compress)
		}
	}
}

// TestEncodeRejectsV1: asking any encoder for the retired format v1 is an
// error, not a silent v2 file.
func TestEncodeRejectsV1(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeWith(&buf, sampleTrace(), Options{Version: 1}); err == nil {
		t.Fatal("EncodeWith wrote format v1")
	}
	if buf.Len() != 0 {
		t.Fatalf("EncodeWith wrote %d bytes before failing", buf.Len())
	}
	if _, err := EncodeSegmentWith(nil, &Segment{Seq: 1}, Options{Version: 1}); err == nil {
		t.Fatal("EncodeSegmentWith wrote format v1")
	}
}

// TestSegmentFrameCountBomb is the regression for the unbounded-frame-
// preallocation bug: a corrupt header claiming 2^40 site frames must be
// rejected by the count cap, not drive the frame-decode loop.
func TestSegmentFrameCountBomb(t *testing.T) {
	// Marker, version 2, flags 0, seq 1, then the frame count; no frame
	// data follows, so only the cap can reject it with this error.
	for _, n := range []uint64{1 << 40, maxSegmentFrames + 1} {
		bomb := binary.AppendUvarint([]byte{segMarker0, segMarker1, version2, 0, 1}, n)
		if _, err := DecodeSegment(bomb, 1); err == nil || !strings.Contains(err.Error(), "implausible site count") {
			t.Fatalf("frame count %d: %v, want the count cap's error", n, err)
		}
	}
}

// TestPeekSegmentSeqHostile: arbitrary prefixes never panic and truncated
// sequence numbers are errors.
func TestPeekSegmentSeqHostile(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		{},
		{0x00},
		{0x00, 'S'},
		{0x00, 'X', 2, 0, 1},
		{0x00, 'S', 9, 0, 1},
		{0x00, 'S', 2, 0},
		{0x80},
		{0x80, 0x80},
	} {
		if _, err := PeekSegmentSeq(data); err == nil {
			t.Fatalf("PeekSegmentSeq(%x) accepted", data)
		}
	}
}
