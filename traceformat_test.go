package bench

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/hawkset"
	"hawkset/internal/report"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
	"hawkset/internal/ycsb"
)

// TestTraceFormatsYieldIdenticalReports is the end-to-end invariant behind
// the capture-once/analyze-many design: the analysis report document must be
// byte-identical whether the trace arrives in-process, through a v2 file
// (plain or compressed), or as a pmcheckd-style segment sequence. Any
// divergence means a stored or streamed trace is not the trace. Format v2
// is the only format written or read; the committed v2 fixtures in
// internal/trace pin its layout, so a file or segment log stored today reads
// back as the same trace, and the same report, later.
func TestTraceFormatsYieldIdenticalReports(t *testing.T) {
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		t.Fatal(err)
	}
	w := ycsb.Generate(e.Spec(4000), 42)
	rt, err := apps.Run(e, w, apps.RunConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const app, workload = "Fast-Fair", "ycsb ops=4000 seed=42"
	renderDoc := func(res *hawkset.Result) []byte {
		var buf bytes.Buffer
		if err := report.New(res, app, workload, nil).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	want := renderDoc(hawkset.Analyze(rt.Trace, hawkset.DefaultConfig()))
	if len(want) == 0 {
		t.Fatal("baseline report is empty; differential test is vacuous")
	}

	// File round trips, streamed through the online analyzer exactly as
	// cmd/hawkset -trace-in does.
	for _, tc := range []struct {
		name string
		opts trace.Options
	}{
		{"v2-file", trace.Options{Version: 2}},
		{"v2-flate-file", trace.Options{Version: 2, Compress: true}},
	} {
		var file bytes.Buffer
		if err := trace.EncodeWith(&file, rt.Trace, tc.opts); err != nil {
			t.Fatal(err)
		}
		dec, err := trace.NewDecoder(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		st := hawkset.NewStream(dec.Sites(), hawkset.DefaultConfig())
		for {
			ev, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if err := st.Feed(ev); err != nil {
				t.Fatal(err)
			}
		}
		res, err := st.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if got := renderDoc(res); !bytes.Equal(got, want) {
			t.Errorf("%s: report differs from in-process analysis (%d vs %d bytes)",
				tc.name, len(got), len(want))
		}
	}

	// Segment ingestion: chunk the trace into encoded segments (the pmcheckd
	// wire payload), decode each against a growing receiver-side site table,
	// and stream the events — the daemon's apply path in miniature.
	for _, o := range []trace.Options{{Version: 2}, {Version: 2, Compress: true}} {
		recv := sites.NewTable()
		st := hawkset.NewStream(recv, hawkset.DefaultConfig())
		frames := rt.Trace.Sites.Frames()
		sentFrames := 0
		seq := uint64(1)
		for batch := range slices.Chunk(slices.Collect(rt.Trace.Events()), 1500) {
			seg := &trace.Segment{Seq: seq, Events: batch}
			if sentFrames < len(frames)-1 {
				seg.Frames = frames[1+sentFrames:]
				sentFrames = len(frames) - 1
			}
			enc, err := trace.EncodeSegmentWith(nil, seg, o)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := trace.DecodeSegment(enc, recv.Len())
			if err != nil {
				t.Fatalf("segment v%d seq %d: %v", o.Version, seq, err)
			}
			for _, f := range dec.Frames {
				recv.Append(f)
			}
			for _, ev := range dec.Events {
				if err := st.Feed(ev); err != nil {
					t.Fatal(err)
				}
			}
			seq++
		}
		res, err := st.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if got := renderDoc(res); !bytes.Equal(got, want) {
			t.Errorf("segment ingestion (v%d, compress=%v): report differs from in-process analysis",
				o.Version, o.Compress)
		}
	}
}
