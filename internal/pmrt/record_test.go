package pmrt

import (
	"bytes"
	"slices"
	"testing"

	"hawkset/internal/pmem"
	"hawkset/internal/trace"
)

// TestRecordOpsReplayRoundTrip runs a small multi-threaded program with
// journaling on, replays the journal on a fresh device, and checks that
// every prefix of the journal is internally consistent and that the final
// replayed device matches the live one byte-for-byte in both views.
func TestRecordOpsReplayRoundTrip(t *testing.T) {
	rt := New(Config{Seed: 7, PoolSize: 1 << 16, RecordOps: true})
	err := rt.Run(func(c *Ctx) {
		a := c.Alloc(64)
		b := c.Alloc(64)
		c.Zero(a, 64)
		c.Persist(a, 64)
		c.Store8(a, 0x1122334455667788)
		c.Flush(a)
		th := c.Spawn(func(c *Ctx) {
			c.Store4(b, 0xdeadbeef)
			c.Persist(b, 4)
			c.NTStore8(b+8, 42)
			c.Fence()
		})
		c.Fence()
		c.Store1(a+9, 0x5a) // left unpersisted
		if !c.CAS8(a+16, 0, 99) {
			t.Error("CAS8 on zeroed word failed")
		}
		c.Join(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Ops) == 0 {
		t.Fatal("RecordOps produced no journal")
	}

	events := slices.Collect(rt.Trace.Events())
	nev := len(events)
	prev := -2
	for _, op := range rt.Ops {
		if op.Seq >= nev {
			t.Fatalf("op Seq %d out of trace range %d", op.Seq, nev)
		}
		if op.Seq != -1 {
			if op.Seq <= prev {
				t.Fatalf("journal Seq not strictly increasing: %d after %d", op.Seq, prev)
			}
			prev = op.Seq
			k := events[op.Seq].Kind
			switch op.Kind {
			case pmem.OpStore:
				if k != trace.KStore {
					t.Fatalf("OpStore maps to trace kind %v", k)
				}
			case pmem.OpNTStore:
				if k != trace.KNTStore {
					t.Fatalf("OpNTStore maps to trace kind %v", k)
				}
			case pmem.OpFlush:
				if k != trace.KFlush {
					t.Fatalf("OpFlush maps to trace kind %v", k)
				}
			case pmem.OpFence:
				if k != trace.KFence {
					t.Fatalf("OpFence maps to trace kind %v", k)
				}
			}
		} else if op.Kind != pmem.OpStore || op.Data != nil {
			t.Fatalf("only untraced zero-stores may have Seq -1, got %v", op.Kind)
		}
	}

	r := pmem.NewReplayer(1 << 16)
	r.AdvanceTo(rt.Ops, len(rt.Ops))
	if !bytes.Equal(r.Pool().Crash(), rt.Pool.Crash()) {
		t.Errorf("replayed persistent image differs from live device")
	}
	for addr := uint64(0); addr < 1<<16; addr += 8 {
		if r.Pool().Load8(addr) != rt.Pool.Load8(addr) {
			t.Errorf("volatile views differ at %#x", addr)
			break
		}
	}
}

// TestRecordOpsOffByDefault ensures journaling costs nothing unless opted in.
func TestRecordOpsOffByDefault(t *testing.T) {
	rt := New(Config{Seed: 1, PoolSize: 1 << 12})
	err := rt.Run(func(c *Ctx) {
		a := c.Alloc(8)
		c.Store8(a, 1)
		c.Persist(a, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Ops != nil {
		t.Fatalf("journal recorded without RecordOps: %d ops", len(rt.Ops))
	}
}
