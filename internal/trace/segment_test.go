package trace

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"hawkset/internal/sites"
)

// TestSegmentRoundTrip: a sequence of segments carrying incremental site
// frames and event batches reconstructs the original trace exactly.
func TestSegmentRoundTrip(t *testing.T) {
	tr := sampleTrace()
	frames := tr.Sites.Frames()

	// Split the trace into three segments; frames ride with the first.
	all := events(tr)
	n := len(all)
	cuts := []int{0, n / 3, 2 * n / 3, n}
	var segs []*Segment
	for i := 0; i+1 < len(cuts); i++ {
		seg := &Segment{Seq: uint64(i + 1), Events: all[cuts[i]:cuts[i+1]]}
		if i == 0 {
			seg.Frames = frames[1:] // reserved frame 0 never travels
		}
		segs = append(segs, seg)
	}

	var got []Event
	recv := sites.NewTable()
	for _, seg := range segs {
		enc, err := EncodeSegmentWith(nil, seg, Options{})
		if err != nil {
			t.Fatalf("encode seq %d: %v", seg.Seq, err)
		}
		dec, err := DecodeSegment(enc, recv.Len())
		if err != nil {
			t.Fatalf("decode seq %d: %v", seg.Seq, err)
		}
		if dec.Seq != seg.Seq {
			t.Fatalf("seq: got %d want %d", dec.Seq, seg.Seq)
		}
		for _, f := range dec.Frames {
			recv.Append(f)
		}
		got = append(got, dec.Events...)
	}
	if !reflect.DeepEqual(got, all) {
		t.Fatalf("events differ after segment round trip")
	}
	if !reflect.DeepEqual(recv.Frames(), frames) {
		t.Fatalf("site tables differ after segment round trip")
	}
}

// TestSegmentRejects: structural violations error out instead of panicking
// or silently mis-decoding.
func TestSegmentRejects(t *testing.T) {
	seg := &Segment{
		Seq:    7,
		Frames: []sites.Frame{{File: "a.go", Line: 1, Func: "f"}},
		Events: []Event{{Kind: KStore, TID: 1, Addr: 64, Size: 8, Site: 1}},
	}
	enc, err := EncodeSegmentWith(nil, seg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeSegment(enc[:cut], 1); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		if _, err := DecodeSegment(append(append([]byte{}, enc...), 0xEE), 1); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})
	t.Run("site-out-of-range", func(t *testing.T) {
		bad := &Segment{Seq: 1, Events: []Event{{Kind: KLoad, TID: 1, Addr: 0, Size: 8, Site: 9}}}
		raw, err := EncodeSegmentWith(nil, bad, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSegment(raw, 1); err == nil {
			t.Fatal("event referencing unseen site accepted")
		}
		// The same segment is fine for a receiver whose table covers ID 9.
		if _, err := DecodeSegment(raw, 10); err != nil {
			t.Fatalf("valid site rejected: %v", err)
		}
	})
	t.Run("event-count-bomb", func(t *testing.T) {
		// Marker, version 2, flags 0, seq 1, no frames, then a block
		// claiming 2^40 events in 16 raw bytes, with nothing behind it.
		bomb := binary.AppendUvarint([]byte{segMarker0, segMarker1, version2, 0, 1, 0}, 1<<40)
		bomb = append(bomb, 16, 16)
		if _, err := DecodeSegment(bomb, 1); err == nil || !strings.Contains(err.Error(), "claims") {
			t.Fatalf("event-count bomb: %v, want the block cap's error", err)
		}
	})
}
