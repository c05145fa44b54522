package hawkset

import (
	"hawkset/internal/sites"
	"hawkset/internal/trace"
)

// StoreWindow is one dynamic store's visible-but-unpersisted window in
// trace-event coordinates: a crash after trace event i with
// Start <= i < End loses (or tears) the stored value. End is the index of
// the event that closed the window — the persisting fence or the
// overwriting store — or the total event count for windows still open when
// the trace ends (EndNone).
//
// The crash-injection harness (internal/crashinject) translates windows
// into device-journal positions via pmem.Op.Seq to crash precisely inside
// the unpersisted windows of reported races — the paper's §5.1 argument
// ("a crash inside the window loses data") turned into an executable
// check.
type StoreWindow struct {
	StoreSite sites.ID
	TID       int32
	Addr      uint64
	Size      uint32
	Start     int
	End       int
	EndKind   EndKind
}

// Windows re-runs the Memory Simulation stage over tr and returns every
// unpersisted window, in window-close order. The cfg controls only the
// simulation-relevant knobs (EADR); lockset/IRH settings do not affect
// which windows exist, only which become reports.
func Windows(tr *trace.Trace, cfg Config) []StoreWindow {
	r := newReplayer(cfg)
	var ws []StoreWindow
	r.onWindow = func(w StoreWindow) { ws = append(ws, w) }
	for e := range tr.Events() {
		r.feed(e)
	}
	r.finish()
	return ws
}
