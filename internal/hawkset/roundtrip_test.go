package hawkset

import (
	"bytes"
	"math/rand"
	"testing"

	"hawkset/internal/trace"
)

// TestAnalyzeAfterCodecRoundTrip: capturing a trace to the binary format and
// re-analyzing it yields the same reports — the decoupled
// instrumentation/analysis workflow of cmd/hawkset -trace-out/-trace-in.
func TestAnalyzeAfterCodecRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr := randTrace(rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if err := trace.EncodeWith(&buf, tr, trace.Options{}); err != nil {
			t.Fatal(err)
		}
		decoded, err := trace.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		a := Analyze(tr, DefaultConfig())
		b := Analyze(decoded, DefaultConfig())
		as, bs := reportSet(a), reportSet(b)
		if len(as) != len(bs) {
			t.Fatalf("seed %d: %d vs %d reports after round trip", seed, len(as), len(bs))
		}
		for r := range as {
			if _, ok := bs[r]; !ok {
				t.Fatalf("seed %d: report %v lost in round trip", seed, r)
			}
		}
	}
}
