package trace

import (
	"bytes"
	"encoding/hex"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hawkset/internal/sites"
)

// Format v1 is read-only: the package writes only v2, so the committed v1
// fixtures below are the specification of the v1 layout. They were produced
// by the v1 encoder the package used to have and can no longer be
// regenerated. If a test here fails, v1 decoding has drifted, and traces
// captured in v1 — or pmcheckd segment logs written before v2 — no longer
// load.

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

// v1BigTrace is the trace testdata/golden_v1_big.hwkt holds: the first 2000
// events of bigTrace (which therefore must keep its shape) followed by
// edgeEvents at edgeFrame's site.
func v1BigTrace() *Trace {
	tr := bigTrace(2000)
	for _, e := range edgeEvents(tr.Sites.Intern(edgeFrame)) {
		tr.Append(e)
	}
	return tr
}

// v1EdgeSegment is the segment v1EdgeSegmentHex encodes, for a receiver
// whose site table holds only the reserved frame 0.
func v1EdgeSegment() *Segment {
	return &Segment{
		Seq:    1 << 40,
		Frames: []sites.Frame{edgeFrame, {}},
		Events: edgeEvents(2),
	}
}

const v1EdgeSegmentHex = "" +
	"808080808020" + // seq 1<<40
	"02" + "07656467652e676f" + "ffffffff07" + "0465646765" + "000000" + // 2 frames
	"0a" + // 10 events: kind, tid, site, then the kind's fields
	"0a0002" + "808080808020" + "808040" +
	"01ffffffff0702" + "f8ffffffffffffffff01" + "ffffffff0f" +
	"03ffffffff0702" + "ffffffffffffffffff01" + "01" +
	"020000" + "f8ffffffffffffffff01" + "ffffffff0f" +
	"04ffffffff0702" + "c0ffffffffffffffff01" +
	"05ffffffff0702" +
	"06ffffffff0702" + "80808080808080808001" +
	"07ffffffff0702" + "ffffffffffffffffff01" +
	"080002" + "ffffffff07" +
	"090002" + "ffffffff07"

// v1FileFixtures lists each committed v1 trace file with the trace it holds.
var v1FileFixtures = []struct {
	file string
	want func() *Trace
}{
	{"golden_v1.hwkt", sampleTrace},
	{"golden_v1_big.hwkt", v1BigTrace},
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
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

func v1EdgeSegmentBytes(t *testing.T) []byte {
	t.Helper()
	raw, err := hex.DecodeString(v1EdgeSegmentHex)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestV1FileFixturesDecode: each v1 file decodes to its trace through both
// the batch Decode and the streaming Decoder.
func TestV1FileFixturesDecode(t *testing.T) {
	for _, fx := range v1FileFixtures {
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
		if dec.Version() != 1 {
			t.Fatalf("%s: Version = %d, want 1", fx.file, dec.Version())
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

// TestV1SegmentFixtureDecodes: the v1 segment decodes to its segment, and
// PeekSegmentSeq reads its multi-byte sequence number.
func TestV1SegmentFixtureDecodes(t *testing.T) {
	raw := v1EdgeSegmentBytes(t)
	want := v1EdgeSegment()
	if seq, err := PeekSegmentSeq(raw); err != nil || seq != want.Seq {
		t.Fatalf("PeekSegmentSeq = %d, %v; want %d", seq, err, want.Seq)
	}
	got, err := DecodeSegment(raw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v1 segment decoded to %+v\nwant %+v", got, want)
	}
}

// TestCrossVersionRoundTrip: every v1 fixture, decoded and re-encoded as v2
// (plain and flate), decodes back to the same trace or segment — the
// contract that lets old captures be re-encoded losslessly.
func TestCrossVersionRoundTrip(t *testing.T) {
	v2Opts := []Options{{Version: 2}, {Version: 2, Compress: true}}
	for _, fx := range v1FileFixtures {
		fromV1, err := Decode(bytes.NewReader(readFixture(t, fx.file)))
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		for _, o := range v2Opts {
			var buf bytes.Buffer
			if err := EncodeWith(&buf, fromV1, o); err != nil {
				t.Fatal(err)
			}
			fromV2, err := Decode(&buf)
			if err != nil {
				t.Fatalf("%s: decoding v2 re-encode (compress=%v): %v", fx.file, o.Compress, err)
			}
			requireSameTrace(t, fx.file+" v1→v2", fromV2, fx.want())
		}
	}

	seg, err := DecodeSegment(v1EdgeSegmentBytes(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range v2Opts {
		enc, err := EncodeSegmentWith(nil, seg, o)
		if err != nil {
			t.Fatal(err)
		}
		if seq, err := PeekSegmentSeq(enc); err != nil || seq != seg.Seq {
			t.Fatalf("v2 segment (compress=%v): PeekSegmentSeq = %d, %v", o.Compress, seq, err)
		}
		got, err := DecodeSegment(enc, 1)
		if err != nil {
			t.Fatalf("v2 segment (compress=%v): %v", o.Compress, err)
		}
		if !reflect.DeepEqual(got, v1EdgeSegment()) {
			t.Fatalf("v1→v2 segment round trip changed the segment (compress=%v)", o.Compress)
		}
	}
}
