package hawkset

import (
	"fmt"
	"reflect"
	"testing"

	"hawkset/internal/pmem"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
)

// fuzzEvents decodes a FuzzStreamFeed input. The first byte picks the
// configuration: bit 0 turns the IRH off, bit 1 the effective lockset, bit 2
// turns AllocAware on and bit 3 EADR. Every further four bytes
// {op, a, b, c} are one event:
//
//	op % 11  the kind: 0-9 are KStore..KAlloc, 10 an unknown kind
//	op / 11  the site
//	a % 6    the thread
//	b        the address 0x1000 + 4*b (16 lines), or the child b % 6
//	c        the size: c below 192, else (c-191)*256, up to 16 KiB;
//	         the lock c % 4; for an unknown kind, 0 if c is even, else 11 + c/2
//
// Sizes stop at 16 KiB: one store of up to 2^32-1 bytes is ROADMAP item 4's
// other open bullet (replay reserves a line entry per line it covers).
func fuzzEvents(data []byte) (Config, []trace.Event) {
	cfg := DefaultConfig()
	if len(data) == 0 {
		return cfg, nil
	}
	sel := data[0]
	cfg.IRH = sel&1 == 0
	cfg.EffectiveLockset = sel&2 == 0
	cfg.AllocAware = sel&4 != 0
	cfg.EADR = sel&8 != 0
	var events []trace.Event
	for p := data[1:]; len(p) >= 4 && len(events) < 512; p = p[4:] {
		op, a, b, c := p[0], p[1], p[2], p[3]
		e := trace.Event{Kind: trace.Kind(op%11 + 1), TID: int32(a % 6), Site: sites.ID(op / 11)}
		switch e.Kind {
		case trace.KStore, trace.KLoad, trace.KNTStore, trace.KFlush, trace.KAlloc:
			e.Addr = 0x1000 + 4*uint64(b)
			e.Size = uint32(c)
			if c >= 192 {
				e.Size = uint32(c-191) << 8
			}
			if e.Kind == trace.KFlush {
				e.Size = 0
			}
		case trace.KLockAcq, trace.KLockRel:
			e.Lock = uint64(c % 4)
		case trace.KThreadCreate, trace.KThreadJoin:
			e.Kid = int32(b % 6)
		case trace.KFence:
		default:
			e.Kind = 0
			if c&1 != 0 {
				e.Kind = trace.Kind(11 + c/2)
			}
		}
		events = append(events, e)
	}
	return cfg, events
}

// fuzzSeed encodes a FuzzStreamFeed input from a configuration byte and
// events given as {kind, thread, b, c}, as fuzzEvents reads them; kind 11
// stands for an unknown kind.
func fuzzSeed(sel byte, evs ...[4]byte) []byte {
	data := []byte{sel}
	for _, e := range evs {
		data = append(data, e[0]-1, e[1], e[2], e[3])
	}
	return data
}

// checkWindowRecords walks every line's open list and every thread's
// pending flush snapshots and checks the openStore bookkeeping: a record's
// count is the number of those lists that hold it, an open record sits in
// the list of every line it covers, no free record sits in any list or
// keeps a field, and the records in use plus the free ones are all the
// records allocated.
func checkWindowRecords(r *replayer) error {
	held := map[*openStore]int32{}
	inLines := map[*openStore]int{}
	for le := range r.lines.all {
		for _, os := range le.open {
			held[os]++
			inLines[os]++
		}
	}
	for _, ts := range r.threads {
		for _, pf := range ts.pending {
			for _, os := range pf.covered {
				held[os]++
			}
		}
	}
	for os, n := range held {
		if os.refs != n {
			return fmt.Errorf("record of the store at %#x (size %d) counts %d holders, %d lists hold it", os.addr, os.size, os.refs, n)
		}
		lines := 0
		linesOf(os.addr, os.size, func(uint64) { lines++ })
		if !os.closed && inLines[os] != lines {
			return fmt.Errorf("open record of the store at %#x (size %d) sits in %d of its %d lines", os.addr, os.size, inLines[os], lines)
		}
	}
	free := map[*openStore]bool{}
	for _, os := range r.free {
		switch {
		case free[os]:
			return fmt.Errorf("a record is on the free list twice")
		case held[os] > 0:
			return fmt.Errorf("a free record sits in %d lists", held[os])
		case !reflect.DeepEqual(*os, openStore{}):
			return fmt.Errorf("a free record keeps its fields: %+v", *os)
		}
		free[os] = true
	}
	if len(held)+len(r.free) != r.allocated {
		return fmt.Errorf("%d records in use and %d free, %d allocated", len(held), len(r.free), r.allocated)
	}
	return nil
}

// FuzzStreamFeed feeds decoded events of every kind to a Stream and checks
// the replayer's bookkeeping after each one: its window records
// (checkWindowRecords), and each record log against its index
// (checkRecTab). An
// unknown kind must be rejected with the stream's state untouched, and
// every store must open exactly one window and close it at most once:
// closed windows plus open records equal the stores fed. Finish must not
// panic, and must return what a stream fed only the valid events returns.
func FuzzStreamFeed(f *testing.F) {
	const unknown = 11 // fuzzSeed's stand-in for an unknown kind
	st, ld, nt, fl, fe := byte(trace.KStore), byte(trace.KLoad), byte(trace.KNTStore), byte(trace.KFlush), byte(trace.KFence)
	acq, rel, create, join, alloc := byte(trace.KLockAcq), byte(trace.KLockRel), byte(trace.KThreadCreate), byte(trace.KThreadJoin), byte(trace.KAlloc)
	for _, sel := range []byte{0, 1, 2, 4, 8} {
		// Unknown kinds between a store and its persist.
		f.Add(fuzzSeed(sel, [4]byte{st, 1, 0, 8}, [4]byte{unknown, 1, 0, 0}, [4]byte{unknown, 2, 0, 7},
			[4]byte{fl, 1, 0, 0}, [4]byte{unknown, 1, 0, 255}, [4]byte{fe, 1, 0, 0}, [4]byte{ld, 2, 0, 8}))
		// An unmatched release, a join of a thread never created, and
		// accesses by the thread joined.
		f.Add(fuzzSeed(sel, [4]byte{rel, 2, 0, 3}, [4]byte{join, 1, 5, 0}, [4]byte{st, 5, 2, 8},
			[4]byte{ld, 1, 2, 8}, [4]byte{acq, 1, 0, 1}, [4]byte{rel, 1, 0, 2}, [4]byte{ld, 3, 2, 8}))
		// TID reuse while the old incarnation has unfenced flushes, a thread
		// that creates itself, and the fences after both.
		f.Add(fuzzSeed(sel, [4]byte{create, 0, 1, 0}, [4]byte{st, 1, 4, 8}, [4]byte{fl, 1, 4, 0},
			[4]byte{create, 0, 1, 0}, [4]byte{fe, 1, 0, 0}, [4]byte{st, 2, 8, 8}, [4]byte{fl, 2, 8, 0},
			[4]byte{create, 2, 2, 0}, [4]byte{fe, 2, 0, 0}, [4]byte{st, 1, 4, 8}, [4]byte{ld, 3, 8, 8}))
		// Zero-size stores, NT stores and loads, and an overwrite of one.
		f.Add(fuzzSeed(sel, [4]byte{st, 1, 0, 0}, [4]byte{nt, 2, 16, 0}, [4]byte{ld, 3, 0, 0},
			[4]byte{st, 2, 0, 8}, [4]byte{fe, 2, 0, 0}, [4]byte{fl, 1, 0, 0}, [4]byte{fe, 1, 0, 0}))
		// Stores and NT stores spanning lines, up to 16 KiB, persisted
		// through some of their lines and overwritten through others.
		f.Add(fuzzSeed(sel, [4]byte{st, 1, 15, 8}, [4]byte{nt, 2, 30, 100}, [4]byte{st, 3, 40, 200},
			[4]byte{fl, 1, 15, 0}, [4]byte{fe, 1, 0, 0}, [4]byte{st, 4, 16, 8}, [4]byte{nt, 1, 0, 255},
			[4]byte{fl, 3, 40, 0}, [4]byte{st, 2, 100, 8}, [4]byte{fe, 3, 0, 0}, [4]byte{fe, 2, 0, 0},
			[4]byte{fl, 4, 17, 0}, [4]byte{fe, 4, 0, 0}, [4]byte{ld, 5, 100, 8}))
		// Flushes and fences by other threads: T1's fence does not complete
		// T2's flush of T1's store, T2's does.
		f.Add(fuzzSeed(sel, [4]byte{st, 1, 0, 8}, [4]byte{fl, 2, 0, 0}, [4]byte{fe, 1, 0, 0},
			[4]byte{ld, 3, 0, 8}, [4]byte{fe, 2, 0, 0}, [4]byte{ld, 3, 0, 8}))
		// Overwrites of stores that sit in another thread's flush snapshot:
		// the snapshot is the record's last holder when T2 fences.
		f.Add(fuzzSeed(sel, [4]byte{st, 1, 0, 8}, [4]byte{fl, 2, 0, 0}, [4]byte{st, 3, 0, 8},
			[4]byte{fl, 2, 0, 0}, [4]byte{st, 1, 1, 8}, [4]byte{st, 4, 0, 16}, [4]byte{fe, 2, 0, 0},
			[4]byte{ld, 5, 0, 8}, [4]byte{fe, 3, 0, 0}))
		// An allocation over an open window, then persists and loads.
		f.Add(fuzzSeed(sel, [4]byte{st, 1, 0, 8}, [4]byte{alloc, 2, 0, 64}, [4]byte{ld, 2, 0, 8},
			[4]byte{st, 2, 0, 8}, [4]byte{fl, 2, 0, 0}, [4]byte{fe, 2, 0, 0}, [4]byte{ld, 3, 0, 8}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, events := fuzzEvents(data)
		table := sites.NewTable()
		s, ref := NewStream(table, cfg), NewStream(table, cfg)
		var windows, stores int
		s.rp.onWindow = func(StoreWindow) { windows++ }
		for i, e := range events {
			before := s.rp.stats
			err := s.Feed(e)
			if !e.Kind.Valid() {
				if err == nil || s.rp.stats != before {
					t.Fatalf("event %d, %v: err %v, stats %+v after %+v", i, e, err, s.rp.stats, before)
				}
				continue
			}
			if err != nil {
				t.Fatalf("event %d, %v: %v", i, e, err)
			}
			if err := ref.Feed(e); err != nil {
				t.Fatal(err)
			}
			if (e.Kind == trace.KStore || e.Kind == trace.KNTStore) && !cfg.EADR {
				stores++
			}
			if err := checkWindowRecords(s.rp); err != nil {
				t.Fatalf("after event %d, %v: %v", i, e, err)
			}
			if err := checkRecTab(&s.rp.loads, func(d *LoadData) uint64 { return d.hash(s.rp.loads.seed) }); err != nil {
				t.Fatalf("after event %d, %v: load index: %v", i, e, err)
			}
			if err := checkRecTab(&s.rp.stores, func(d *StoreData) uint64 { return d.hash(s.rp.stores.seed) }); err != nil {
				t.Fatalf("after event %d, %v: store index: %v", i, e, err)
			}
			open := 0
			for le := range s.rp.lines.all {
				for _, os := range le.open {
					if !os.closed && pmem.LineOf(os.addr) == le.key-1 {
						open++
					}
				}
			}
			if windows+open != stores {
				t.Fatalf("after event %d, %v: %d windows closed and %d open, %d stores", i, e, windows, open, stores)
			}
		}
		got, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if windows != stores {
			t.Fatalf("%d windows for %d stores", windows, stores)
		}
		want, err := ref.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("unknown kinds changed the result:\n got %+v\nwant %+v", got.Stats, want.Stats)
		}
	})
}
