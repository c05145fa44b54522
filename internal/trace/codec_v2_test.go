package trace

import (
	"bytes"
	"encoding/hex"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"hawkset/internal/sites"
)

// bigTrace builds a multi-block trace (> 64 KiB of raw v2 payload) with the
// mixed per-thread locality real instrumentation produces. Its first 2000
// events are frozen in testdata/golden_v1_big.hwkt, so its shape must not
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

// TestGoldenV1Fixture: the original committed v1 file still decodes to the
// sample trace it was written from.
func TestGoldenV1Fixture(t *testing.T) {
	got, err := Decode(bytes.NewReader(readFixture(t, "golden_v1.hwkt")))
	if err != nil {
		t.Fatalf("golden v1 fixture no longer decodes: %v", err)
	}
	requireSameTrace(t, "golden_v1.hwkt", got, sampleTrace())
}

// encodedSamples returns the sample trace as a v1 file (the committed
// fixture), a v2 file and a v2-flate file, keyed by format name.
func encodedSamples(tb testing.TB) map[string][]byte {
	tb.Helper()
	v1, err := os.ReadFile(filepath.Join("testdata", "golden_v1.hwkt"))
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string][]byte{"v1": v1}
	for name, o := range map[string]Options{
		"v2":       {},
		"v2-flate": {Compress: true},
	} {
		var buf bytes.Buffer
		if err := EncodeWith(&buf, sampleTrace(), o); err != nil {
			tb.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestDecodeRejectsTrailingGarbage is the regression for the bug where
// Decode stopped reading at the declared event count and silently accepted
// whatever followed. Both versions must require EOF after the last event.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	for name, clean := range encodedSamples(t) {
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
		if dec.Version() != 2 {
			t.Fatalf("Version = %d, want 2", dec.Version())
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
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
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
	var buf bytes.Buffer
	if err := Encode(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Layout: "HWKT" (4) + version uvarint (1 byte for 2) + flags byte.
	raw[5] |= 0x80
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("unknown v2 header flag accepted")
	}
}

// TestSegmentV1GoldenBytes: a v1 segment as pmcheckd segment logs written
// before the v2 codec hold it still decodes, so those logs stay replayable.
func TestSegmentV1GoldenBytes(t *testing.T) {
	want := &Segment{
		Seq:    7,
		Frames: []sites.Frame{{File: "a.go", Line: 1, Func: "f"}},
		Events: []Event{{Kind: KStore, TID: 1, Addr: 64, Size: 8, Site: 1}},
	}
	enc, _ := hex.DecodeString("070104612e676f010166010101014008")
	dec, err := DecodeSegment(enc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, want) {
		t.Fatalf("golden v1 segment decoded to %+v", dec)
	}
}

// TestSegmentCrossVersion: the plain and flate v2 encodings of a segment
// both decode to it, and PeekSegmentSeq reads the right sequence number out
// of each without full decoding. The v1 side is pinned by the fixtures.
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

// TestEncodeRejectsV1: format v1 is read-only; asking any encoder for it is
// an error, not a silent v2 file.
func TestEncodeRejectsV1(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeWith(&buf, sampleTrace(), Options{Version: version1}); err == nil {
		t.Fatal("EncodeWith wrote format v1")
	}
	if buf.Len() != 0 {
		t.Fatalf("EncodeWith wrote %d bytes before failing", buf.Len())
	}
	if _, err := EncodeSegmentWith(nil, &Segment{Seq: 1}, Options{Version: version1}); err == nil {
		t.Fatal("EncodeSegmentWith wrote format v1")
	}
}

// TestSegmentFrameCountBomb is the regression for the unbounded-frame-
// preallocation bug: a corrupt header claiming 2^40 site frames must be
// rejected by the count cap, not drive the frame-decode loop.
func TestSegmentFrameCountBomb(t *testing.T) {
	// v1: seq=1, nsites=2^40.
	bombV1 := []byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}
	if _, err := DecodeSegment(bombV1, 1); err == nil {
		t.Fatal("v1 frame-count bomb accepted")
	}
	// v2: marker, flags=0, seq=1, nsites=2^40.
	bombV2 := append([]byte{segMarker0, segMarker1, 2, 0, 1},
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40)
	if _, err := DecodeSegment(bombV2, 1); err == nil {
		t.Fatal("v2 frame-count bomb accepted")
	}
	// Just above the cap, with no frame data behind it: also rejected by the
	// cap (not by running out of input — the error must mention the count).
	over := binaryAppendUvarintHelper([]byte{1}, maxSegmentFrames+1)
	if _, err := DecodeSegment(over, 1); err == nil {
		t.Fatal("frame count just above cap accepted")
	}
}

func binaryAppendUvarintHelper(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
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
