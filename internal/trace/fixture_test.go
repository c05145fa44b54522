package trace

import (
	"bytes"
	"encoding/hex"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hawkset/internal/sites"
)

// The committed fixtures in testdata are the specification of trace format
// v2, the only format the encoders write and the decoders read (v1 input is
// an error): golden_v2.hwkt holds sampleTrace, golden_v2_big.hwkt holds
// bigEdgeTrace, and golden_v2_edge_segment.hex holds edgeSegment. Each must
// decode to its trace through every read path, and the encoder must write
// that trace back to the committed bytes. If a test here fails, the layout
// has drifted: stored -trace-out files and pmcheckd segment logs no longer
// read as they were written. A fixture is never regenerated to make a test
// pass.
//
// golden_v2_edge_segment.hex is hex with one field group per line
// (whitespace is not part of the encoding):
//
//	 1  marker 00 'S', version 2, flags 0
//	 2  sequence number 2^40
//	 3  2 frames: edgeFrame, then the empty frame
//	 4  block frame: 10 events, raw and stored length 95, CRC-32
//	 5  payload header: 5 runs, then the byte lengths of the 7 streams
//	 6  runs (tid, count): (0, 1) (MaxInt32, 2) (0, 1) (MaxInt32, 4) (0, 2)
//	 7  tags: kind | 0x10 same site | 0x20 same size
//	 8  site deltas, zigzag
//	 9  address deltas, zigzag
//	10  sizes
//	11  lock deltas, zigzag
//	12  kid deltas, zigzag
//	13  terminator: 0, then the event total 10

// edgeEvents returns one event of every kind carrying the extreme values the
// decoders admit: addresses and lock IDs at the top of uint64, access sizes
// at MaxUint32, thread IDs at MaxInt32, and the reserved site 0.
func edgeEvents(site sites.ID) []Event {
	const maxTID = math.MaxInt32
	return []Event{
		{Kind: KAlloc, TID: 0, Addr: 1 << 40, Size: 1 << 20, Site: site},
		{Kind: KStore, TID: maxTID, Addr: math.MaxUint64 - 7, Size: math.MaxUint32, Site: site},
		{Kind: KNTStore, TID: maxTID, Addr: math.MaxUint64, Size: 1, Site: site},
		{Kind: KLoad, TID: 0, Addr: math.MaxUint64 - 7, Size: math.MaxUint32, Site: 0},
		{Kind: KFlush, TID: maxTID, Addr: math.MaxUint64 &^ 63, Site: site},
		{Kind: KFence, TID: maxTID, Site: site},
		{Kind: KLockAcq, TID: maxTID, Lock: 1 << 63, Site: site},
		{Kind: KLockRel, TID: maxTID, Lock: math.MaxUint64, Site: site},
		{Kind: KThreadCreate, TID: 0, Kid: maxTID, Site: site},
		{Kind: KThreadJoin, TID: 0, Kid: maxTID, Site: site},
	}
}

// edgeFrame carries the largest line number the decoders admit.
var edgeFrame = sites.Frame{File: "edge.go", Line: math.MaxInt32, Func: "edge"}

// bigEdgeTrace is the trace testdata/golden_v2_big.hwkt holds: the first
// 2000 events of bigTrace (which therefore must keep its shape) followed by
// edgeEvents at edgeFrame's site.
func bigEdgeTrace() *Trace {
	tr := bigTrace(2000)
	for _, e := range edgeEvents(tr.Sites.Intern(edgeFrame)) {
		tr.Append(e)
	}
	return tr
}

// edgeSegment is the segment testdata/golden_v2_edge_segment.hex holds, for
// a receiver whose site table holds only the reserved frame 0.
func edgeSegment() *Segment {
	return &Segment{
		Seq:    1 << 40,
		Frames: []sites.Frame{edgeFrame, {}},
		Events: edgeEvents(2),
	}
}

// fileFixtures lists each committed trace file with the trace it holds.
var fileFixtures = []struct {
	file string
	want func() *Trace
}{
	{"golden_v2.hwkt", sampleTrace},
	{"golden_v2_big.hwkt", bigEdgeTrace},
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func edgeSegmentBytes(t testing.TB) []byte {
	t.Helper()
	raw, err := hex.DecodeString(strings.Join(strings.Fields(string(readFixture(t, "golden_v2_edge_segment.hex"))), ""))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func requireSameTrace(t *testing.T, what string, got, want *Trace) {
	t.Helper()
	if !reflect.DeepEqual(events(got), events(want)) {
		t.Fatalf("%s: events differ (%d vs %d)", what, got.Len(), want.Len())
	}
	if !reflect.DeepEqual(got.Sites.Frames(), want.Sites.Frames()) {
		t.Fatalf("%s: site tables differ", what)
	}
}

// requireFixtureBytes fails at the first byte where the encoder's output
// departs from the committed fixture.
func requireFixtureBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: encoder writes %#02x at byte %d, the fixture holds %#02x", what, got[i], i, want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: encoder writes %d bytes, the fixture holds %d", what, len(got), len(want))
	}
}

// TestV2FileFixturesDecode: each committed trace file decodes to its trace
// through Decode and through Decoder.Next.
func TestV2FileFixturesDecode(t *testing.T) {
	for _, fx := range fileFixtures {
		raw := readFixture(t, fx.file)
		want := fx.want()
		got, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		requireSameTrace(t, fx.file+" via Decode", got, want)

		dec, err := NewDecoder(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		streamed := &Trace{Sites: dec.Sites()}
		for {
			e, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: event %d: %v", fx.file, streamed.Len(), err)
			}
			streamed.Append(e)
		}
		requireSameTrace(t, fx.file+" via Decoder.Next", streamed, want)
	}
}

// TestV2FileFixturesEncode: the encoder writes each committed trace file's
// trace back to the committed bytes.
func TestV2FileFixturesEncode(t *testing.T) {
	for _, fx := range fileFixtures {
		var buf bytes.Buffer
		if err := EncodeWith(&buf, fx.want(), Options{}); err != nil {
			t.Fatal(err)
		}
		requireFixtureBytes(t, fx.file, buf.Bytes(), readFixture(t, fx.file))
	}
}

// TestV2SegmentFixture: the committed segment decodes to edgeSegment,
// PeekSegmentSeq reads its multi-byte sequence number, and the encoder
// writes the segment back to the committed bytes.
func TestV2SegmentFixture(t *testing.T) {
	raw := edgeSegmentBytes(t)
	want := edgeSegment()
	if seq, err := PeekSegmentSeq(raw); err != nil || seq != want.Seq {
		t.Fatalf("PeekSegmentSeq = %d, %v; want %d", seq, err, want.Seq)
	}
	got, err := DecodeSegment(raw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("segment fixture decoded to %+v\nwant %+v", got, want)
	}

	plain, err := EncodeSegmentWith(nil, want, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireFixtureBytes(t, "segment", plain, raw)
}

// TestV2FixturesFlateRoundTrip: the trace of each committed file and the
// committed segment, encoded with flate, decode back to themselves, and
// PeekSegmentSeq reads the flate segment's sequence number. No flate
// fixture is committed, because compress/flate output may change between
// Go releases.
func TestV2FixturesFlateRoundTrip(t *testing.T) {
	for _, fx := range fileFixtures {
		var buf bytes.Buffer
		if err := EncodeWith(&buf, fx.want(), Options{Compress: true}); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%s: flate encoding: %v", fx.file, err)
		}
		requireSameTrace(t, fx.file+" via flate", got, fx.want())
	}

	want := edgeSegment()
	enc, err := EncodeSegmentWith(nil, want, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := PeekSegmentSeq(enc); err != nil || seq != want.Seq {
		t.Fatalf("flate segment: PeekSegmentSeq = %d, %v; want %d", seq, err, want.Seq)
	}
	if got, err := DecodeSegment(enc, 1); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("flate segment decoded to %+v, %v", got, err)
	}
}
