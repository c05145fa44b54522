package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/obs"
	"hawkset/internal/sites"
)

// goldenOps is the workload size of the pinned site-capture runs (capped
// per app by Entry.Workload).
const goldenOps = 2000

// siteGolden runs one app variant at seed 42 and renders what site capture
// produced: a header with the event count and the SHA-256 of the event
// stream, then the site table in ID order (ID 1 first), one module-relative
// "file:line:func" per line. Both are independent of the machine and the
// checkout path, so the files under testdata/sites pin them byte for byte.
func siteGolden(t *testing.T, e *apps.Entry, fixed bool) []byte {
	t.Helper()
	rt, err := apps.Run(e, e.Workload(goldenOps, 42), apps.RunConfig{Seed: 42, Fixed: fixed})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var rec []byte
	for ev := range rt.Trace.Events() {
		rec = append(rec[:0], byte(ev.Kind))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(ev.TID))
		rec = binary.LittleEndian.AppendUint64(rec, ev.Addr)
		rec = binary.LittleEndian.AppendUint32(rec, ev.Size)
		rec = binary.LittleEndian.AppendUint64(rec, ev.Lock)
		rec = binary.LittleEndian.AppendUint32(rec, uint32(ev.Kid))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(ev.Site))
		h.Write(rec)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "events %d sha256 %x\n", rt.Trace.Len(), h.Sum(nil))
	for _, f := range rt.Trace.Sites.Frames()[1:] {
		fmt.Fprintf(&out, "%s:%d:%s\n", sites.ModuleRel(f.File), f.Line, f.Func)
	}
	return out.Bytes()
}

func goldenPath(e *apps.Entry, fixed bool) string {
	variant := "buggy"
	if fixed {
		variant = "fixed"
	}
	return filepath.Join("testdata", "sites", e.Name+"."+variant+".golden")
}

// TestSiteCaptureGolden pins site capture byte for byte: for every app,
// buggy and fixed, the site table and the event stream must match the
// committed files. IDs are assigned in first-seen order, so a capture path
// that resolved one call site differently, split or merged two sites, or
// reordered first sightings changes the file.
func TestSiteCaptureGolden(t *testing.T) {
	for _, e := range apps.All() {
		for _, fixed := range []bool{false, true} {
			path := goldenPath(e, fixed)
			t.Run(filepath.Base(path), func(t *testing.T) {
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got := siteGolden(t, e, fixed); !bytes.Equal(got, want) {
					t.Errorf("site capture differs from %s\n got:\n%s\nwant:\n%s", path, got, want)
				}
			})
		}
	}
}

// TestSiteCaptureCounters reads the side-band site-capture counters of a
// small Fast-Fair run: every interned frame was resolved exactly once, and
// the frame-pointer key answers nearly every access. A fast path that
// silently turned off (say, an inlined here) fails the ratio.
func TestSiteCaptureCounters(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("no frame-pointer key on " + runtime.GOARCH)
	}
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rt, err := apps.Run(e, e.Workload(1000, 42), apps.RunConfig{Seed: 42, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	fast, slow, resolved := snap.Counter("sites.fast"), snap.Counter("sites.slow"), snap.Counter("sites.resolved")
	if resolved != uint64(rt.Trace.Sites.Len()-1) {
		t.Errorf("sites.resolved = %d, want %d (one per frame)", resolved, rt.Trace.Sites.Len()-1)
	}
	if ratio := float64(fast) / float64(fast+slow); !(ratio >= 0.9) {
		t.Errorf("fast/(fast+slow) = %d/%d = %.3f, want >= 0.9", fast, fast+slow, ratio)
	}
}
