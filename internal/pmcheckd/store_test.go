package pmcheckd

import (
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// TestRecoveryRejectsV1Segment: a segment log whose one segment record holds
// a retired v1 segment, as logs written before segments moved to v2 do,
// makes NewServer fail with an error that names the log and refuses the
// segment as not v2. The record is neither replayed nor truncated as a torn
// tail: the log is left exactly as it was.
func TestRecoveryRejectsV1Segment(t *testing.T) {
	dir := t.TempDir()
	path := logPath(dir, "old")
	log, err := createSegLog(path, logMeta{Tenant: "old", App: "app", Workload: "w"})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := hex.DecodeString("070104612e676f010166010101014008")
	if err != nil {
		t.Fatal(err)
	}
	if err := log.append(recSegment, v1); err != nil {
		t.Fatal(err)
	}
	if err := log.close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(Config{Dir: dir})
	if err == nil {
		srv.Drain() //nolint:errcheck // already failing
		t.Fatal("NewServer recovered a log holding a v1 segment")
	}
	if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "not a v2 segment") {
		t.Fatalf("NewServer: %v; want an error naming %s that refuses the segment as not v2", err, path)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("failed recovery changed the log from %d to %d bytes", len(before), len(after))
	}
}
