package pmcheckd

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"hawkset/internal/trace"
)

// FuzzWire drives every network-facing decoder with arbitrary bytes — the
// same hostile-input discipline as trace.FuzzDecode. None of them may
// panic, and none may allocate proportionally to a hostile length prefix;
// what the fuzzer can reach, a malicious or corrupted client can send.
func FuzzWire(f *testing.F) {
	// Well-formed seeds so the fuzzer starts inside the format: a
	// handshake, a hello frame, acks, and a log record.
	var hs bytes.Buffer
	bw := bufio.NewWriter(&hs)
	if err := writeHandshake(bw); err != nil {
		f.Fatal(err)
	}
	if err := writeFrame(bw, fHello, encodeHello(hello{Tenant: "t1", App: "app", Workload: "w"})); err != nil {
		f.Fatal(err)
	}
	f.Add(hs.Bytes())
	f.Add(encodeHello(hello{Tenant: "tenant-1", App: "Fast-Fair", Workload: "ycsb ops=10 seed=42"}))
	f.Add(encodeHelloAck(helloAck{Acked: 7, Credits: 8, Finished: true}))
	f.Add(encodeAck(ack{Acked: 1 << 40, Credits: 3}))
	f.Add([]byte{recSegment, 5, 1, 2, 3, 4, 5, recFinish, 1, 9})
	f.Add([]byte{recSegment, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// Well-formed segment payloads (block codec, 0x00 'S' marker), so the
	// fuzzer mutates from inside the segment framing: a one-event segment,
	// the committed edge segment (every kind at its field extremes, seq
	// 2^40), and the committed big trace file, whose body after the header
	// is a segment's.
	seg, err := trace.EncodeSegmentWith(nil, &trace.Segment{
		Seq:    3,
		Events: []trace.Event{{Kind: trace.KStore, TID: 1, Addr: 128, Size: 8, Site: 2}},
	}, trace.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	edgeHex, err := os.ReadFile("../trace/testdata/golden_v2_edge_segment.hex")
	if err != nil {
		f.Fatal(err)
	}
	edge, err := hex.DecodeString(strings.Join(strings.Fields(string(edgeHex)), ""))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(edge)
	big, err := os.ReadFile("../trace/testdata/golden_v2_big.hwkt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(big)
	// A retired v1 segment header claiming 2^40 site frames with nothing
	// behind it: rejected at the marker, never read as v2.
	f.Add([]byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame stream: handshake, then frames until the data runs out or a
		// decode error ends the stream.
		br := bufio.NewReader(bytes.NewReader(data))
		if err := readHandshake(br); err == nil {
			for {
				kind, payload, err := readFrame(br)
				if err != nil {
					break
				}
				switch kind {
				case fHello:
					decodeHello(payload) //nolint:errcheck // must-not-panic probe
				case fHelloAck:
					decodeHelloAck(payload) //nolint:errcheck // must-not-panic probe
				case fAck:
					decodeAck(payload) //nolint:errcheck // must-not-panic probe
				}
			}
		}

		// Each payload decoder directly over the raw input.
		decodeHello(data)    //nolint:errcheck // must-not-panic probe
		decodeHelloAck(data) //nolint:errcheck // must-not-panic probe
		decodeAck(data)      //nolint:errcheck // must-not-panic probe

		// Segment payload (the sequence-number-bearing wire body).
		trace.DecodeSegment(data, 4) //nolint:errcheck // must-not-panic probe

		// Segment-log records: walking records must terminate and never
		// claim a record extending past the buffer.
		rest := data
		for {
			kind, payload, n := nextRecord(rest)
			if n == 0 {
				break
			}
			if n > len(rest) {
				t.Fatalf("nextRecord claimed %d bytes of %d", n, len(rest))
			}
			_ = kind
			_ = payload
			rest = rest[n:]
		}
	})
}

// TestWireRoundTrips pins the encode/decode pairs byte-for-byte.
func TestWireRoundTrips(t *testing.T) {
	h := hello{Tenant: "t-9", App: "WIPE", Workload: "ycsb ops=100 seed=7"}
	got, err := decodeHello(encodeHello(h))
	if err != nil || got != h {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	ha := helloAck{Acked: 12, Credits: 8, Finished: true}
	gotHA, err := decodeHelloAck(encodeHelloAck(ha))
	if err != nil || gotHA != ha {
		t.Fatalf("helloAck round trip: %+v, %v", gotHA, err)
	}
	a := ack{Acked: 1 << 50, Credits: 1}
	gotA, err := decodeAck(encodeAck(a))
	if err != nil || gotA != a {
		t.Fatalf("ack round trip: %+v, %v", gotA, err)
	}
	if _, err := decodeHello(append(encodeHello(h), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestValidTenantName pins the filesystem-facing name filter.
func TestValidTenantName(t *testing.T) {
	for _, ok := range []string{"a", "Fast-Fair-seed42", "t_1.log", "A9"} {
		if !validTenantName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := bytes.Repeat([]byte("a"), 129)
	for _, bad := range []string{"", ".", "..", "a/b", "a b", "ü", "a\x00b", string(long)} {
		if validTenantName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}
