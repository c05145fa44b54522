package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"hawkset/internal/sites"
)

// FuzzDecode throws arbitrary bytes at the trace decoder. Decode consumes
// files from outside the process (cmd/hawkset -trace-in), so it must treat
// every byte as hostile: no panic, no unbounded allocation, and any
// successfully-decoded trace must be internally consistent (site IDs inside
// the decoded table) and re-encode to a byte stream that decodes to the
// same trace. Seeds start inside the block framing (tag bytes, deltas, CRC,
// flate) from the committed fixtures, whose big file carries every kind at
// its field extremes, and from the committed segment, whose body after the
// header is a file's.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("NOPE...."))
	f.Add(edgeSegmentBytes(f))
	for _, s := range encodedSamples(f) {
		raw := s.raw
		f.Add(raw)
		f.Add(raw[:len(raw)/2])                          // truncated mid-stream
		f.Add(append(append([]byte(nil), raw...), 0x42)) // trailing garbage
		// Bit-flipped variants: corruption that keeps the magic intact and
		// lands inside the version/flags bytes, counts, block headers, tag
		// bytes and CRCs.
		for _, bit := range []int{4*8 + 1, 5 * 8, 6 * 8, 8*8 + 3, (len(raw) / 2) * 8, (len(raw) - 2) * 8} {
			fl := append([]byte(nil), raw...)
			fl[bit/8] ^= 1 << (bit % 8)
			f.Add(fl)
		}
	}
	// A retired v1 header claiming 2^40 events with no data behind it:
	// rejected by its version, never read as v2.
	var bomb bytes.Buffer
	bomb.WriteString(magic)
	var tmp [binary.MaxVarintLen64]byte
	bomb.Write(tmp[:binary.PutUvarint(tmp[:], 1)])     // version
	bomb.Write(tmp[:binary.PutUvarint(tmp[:], 0)])     // nsites
	bomb.Write(tmp[:binary.PutUvarint(tmp[:], 1<<40)]) // nevents
	f.Add(bomb.Bytes())
	// A v2 block header claiming a huge raw size: rejected by the block cap,
	// never allocated.
	var blockBomb bytes.Buffer
	blockBomb.WriteString(magic)
	blockBomb.Write(tmp[:binary.PutUvarint(tmp[:], version2)])
	blockBomb.WriteByte(0)                                  // flags
	blockBomb.Write(tmp[:binary.PutUvarint(tmp[:], 0)])     // nsites
	blockBomb.Write(tmp[:binary.PutUvarint(tmp[:], 1)])     // block nevents
	blockBomb.Write(tmp[:binary.PutUvarint(tmp[:], 1<<40)]) // rawLen
	f.Add(blockBomb.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected: all the decoder promises for bad input
		}
		frames := len(tr.Sites.Frames())
		for i, e := range events(tr) {
			if int(e.Site) >= frames || e.Site < 0 {
				t.Fatalf("event %d: site %d outside decoded table (%d frames)", i, e.Site, frames)
			}
			if e.TID < 0 || e.Kid < 0 {
				t.Fatalf("event %d: negative thread ID (%d/%d)", i, e.TID, e.Kid)
			}
		}
		for _, o := range []Options{{}, {Compress: true}} {
			var buf bytes.Buffer
			if err := EncodeWith(&buf, tr, o); err != nil {
				t.Fatalf("re-encoding accepted trace (compress=%v): %v", o.Compress, err)
			}
			again, err := Decode(&buf)
			if err != nil {
				t.Fatalf("re-decoding re-encoded trace (compress=%v): %v", o.Compress, err)
			}
			if !reflect.DeepEqual(events(again), events(tr)) {
				t.Fatalf("re-encode round trip changed events (compress=%v)", o.Compress)
			}
		}
	})
}

// fuzzEventBytes is the size of one event in FuzzTraceAppend's input: kind
// (1 B), then TID, Addr, Size, Lock, Kid and Site little-endian.
const fuzzEventBytes = 1 + 4 + 8 + 4 + 8 + 4 + 4

func appendFuzzEvent(b []byte, e Event) []byte {
	b = append(b, byte(e.Kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.TID))
	b = binary.LittleEndian.AppendUint64(b, e.Addr)
	b = binary.LittleEndian.AppendUint32(b, e.Size)
	b = binary.LittleEndian.AppendUint64(b, e.Lock)
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Kid))
	return binary.LittleEndian.AppendUint32(b, uint32(e.Site))
}

func fuzzEvent(b []byte) Event {
	le := binary.LittleEndian
	return Event{
		Kind: Kind(b[0]),
		TID:  int32(le.Uint32(b[1:])),
		Addr: le.Uint64(b[5:]),
		Size: le.Uint32(b[13:]),
		Lock: le.Uint64(b[17:]),
		Kid:  int32(le.Uint32(b[25:])),
		Site: sites.ID(le.Uint32(b[29:])),
	}
}

// FuzzTraceAppend: whatever events are appended, Events yields exactly them
// in order and Len counts them, whether they pack into records or spill.
// lead filler events come first, every other one spilling, so the fuzzed
// events can land on the first record chunk's boundary and the spill list
// crosses chunk boundaries of its own.
func FuzzTraceAppend(f *testing.F) {
	const (
		maxTID  = 1<<tidBits - 1
		maxSite = 1<<siteBits - 1
		maxVal  = 1<<valBits - 1
	)
	seeds := [][]Event{
		// Each kind with its usual fields.
		{
			{Kind: KStore, TID: 1, Addr: 0x1000, Size: 8, Site: 3},
			{Kind: KLoad, TID: 2, Addr: 0x1004, Size: 4, Site: 4},
			{Kind: KNTStore, TID: 1, Addr: 0x2000, Size: 64, Site: 5},
			{Kind: KFlush, TID: 1, Addr: 0x1000, Site: 6},
			{Kind: KFence, TID: 1, Site: 7},
			{Kind: KLockAcq, TID: 3, Lock: 0xdead, Site: 8},
			{Kind: KLockRel, TID: 3, Lock: 0xdead, Site: 9},
			{Kind: KThreadCreate, TID: 0, Kid: 4, Site: 1},
			{Kind: KThreadJoin, TID: 0, Kid: 4, Site: 2},
			{Kind: KAlloc, TID: 1, Addr: 1 << 20, Size: 1 << 20, Site: 10},
		},
		// Each width's edge, then one past it.
		{
			{Kind: KAlloc, TID: maxTID, Addr: 1, Size: maxVal, Site: maxSite},
			{Kind: KThreadCreate, TID: maxTID, Kid: maxVal, Site: maxSite},
			{Kind: KStore, TID: maxTID + 1, Addr: 1, Size: 1},
			{Kind: KStore, TID: 1, Addr: 1, Size: 1, Site: maxSite + 1},
			{Kind: KAlloc, TID: 1, Addr: 1, Size: maxVal + 1},
			{Kind: KThreadJoin, TID: 1, Kid: maxVal + 1},
			{Kind: 1<<kindBits - 1, TID: 1},
			{Kind: 1 << kindBits, TID: 1},
		},
		// Negative IDs.
		{
			{Kind: KFence, TID: -1},
			{Kind: KThreadCreate, TID: 0, Kid: -1},
			{Kind: KLoad, TID: 1, Addr: 8, Size: 8, Site: -1},
			{Kind: KThreadJoin, TID: math.MinInt32, Kid: math.MinInt32, Site: math.MinInt32},
		},
		// Kind bytes 0 and 255, and an all-zero event.
		{{Kind: 0, TID: 1, Addr: 2, Size: 3, Site: 4}, {Kind: 255, TID: 1}, {}},
		// Addr with Lock, and Size with Kid.
		{
			{Kind: KLockAcq, TID: 1, Addr: 0x40, Lock: 7},
			{Kind: KThreadCreate, TID: 1, Size: 8, Kid: 2},
			{Kind: KStore, TID: 1, Addr: math.MaxUint64, Size: math.MaxUint32, Lock: math.MaxUint64, Kid: math.MaxInt32},
		},
		// Addresses at the top of uint64.
		{
			{Kind: KNTStore, TID: 1, Addr: math.MaxUint64, Size: 1},
			{Kind: KFlush, TID: 1, Addr: math.MaxUint64 &^ 63},
			{Kind: KLockRel, TID: 1, Lock: math.MaxUint64},
		},
		edgeEvents(1),
	}
	for _, s := range seeds {
		var b []byte
		for _, e := range s {
			b = appendFuzzEvent(b, e)
		}
		for _, lead := range []uint16{0, firstChunk - 1, firstChunk - uint16(len(s)/2), 2*spillChunk + 1} {
			f.Add(b, lead)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, lead uint16) {
		var want []Event
		for i := range int(lead) % (2 * firstChunk) {
			e := Event{Kind: KStore, TID: 1, Addr: uint64(i), Size: 8}
			if i%2 == 1 {
				e.TID = -1
			}
			want = append(want, e)
		}
		for ; len(data) >= fuzzEventBytes; data = data[fuzzEventBytes:] {
			want = append(want, fuzzEvent(data))
		}
		tr := &Trace{Sites: sites.NewTable()}
		for _, e := range want {
			tr.Append(e)
		}
		if tr.Len() != len(want) {
			t.Fatalf("Len = %d after %d appends", tr.Len(), len(want))
		}
		if got := slices.Collect(tr.Events()); !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("event %d of %d: got %#v, want %#v", i, len(want), got[i], want[i])
				}
			}
			t.Fatalf("got %d events, want %d", len(got), len(want))
		}
	})
}
