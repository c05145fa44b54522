package hawkset

import (
	"testing"

	"hawkset/internal/sites"
	"hawkset/internal/trace"
)

// TestWindows builds a hand-written trace and checks the extracted windows'
// event coordinates and end kinds:
//
//	0: T1 store   a       -> closed by fence at 2 (EndPersist, [0,2))
//	1: T1 flush   a
//	2: T1 fence
//	3: T1 store   b       -> closed by overwrite at 4 (EndOverwrite, [3,4))
//	4: T2 store   b       -> still open at trace end (EndNone, [4,6))
//	5: T1 load    b
func TestWindows(t *testing.T) {
	st := sites.NewTable()
	s := st.Here(0)
	const a, b = 0x0, 0x100
	tr := &trace.Trace{Sites: st}
	for _, e := range []trace.Event{
		{Kind: trace.KStore, TID: 1, Addr: a, Size: 8, Site: s},
		{Kind: trace.KFlush, TID: 1, Addr: a, Site: s},
		{Kind: trace.KFence, TID: 1, Site: s},
		{Kind: trace.KStore, TID: 1, Addr: b, Size: 8, Site: s},
		{Kind: trace.KStore, TID: 2, Addr: b, Size: 8, Site: s},
		{Kind: trace.KLoad, TID: 1, Addr: b, Size: 8, Site: s},
	} {
		tr.Append(e)
	}

	ws := Windows(tr, Config{})
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want 3: %+v", len(ws), ws)
	}
	want := []StoreWindow{
		{StoreSite: s, TID: 1, Addr: a, Size: 8, Start: 0, End: 2, EndKind: EndPersist},
		{StoreSite: s, TID: 1, Addr: b, Size: 8, Start: 3, End: 4, EndKind: EndOverwrite},
		{StoreSite: s, TID: 2, Addr: b, Size: 8, Start: 4, End: 6, EndKind: EndNone},
	}
	for i, w := range want {
		if ws[i] != w {
			t.Errorf("window %d = %+v, want %+v", i, ws[i], w)
		}
	}

	// EADR: no unpersisted windows exist at all.
	if got := Windows(tr, Config{EADR: true}); len(got) != 0 {
		t.Errorf("EADR produced %d windows, want 0", len(got))
	}
}
