package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// FuzzPoolVsDense drives the page-sparse Pool and the dense reference
// (dense_test.go) with one operation sequence decoded from the input, under
// the configuration its first byte picks (EADR, TrackWriters, EvictAfter,
// and a pool size that is or is not a whole number of pages). The sequence
// mixes stores and NT stores of any size, including zero, across page
// boundaries and at the pool's last bytes, loads, flushes, flush ranges,
// fences, reboots, and reboot clones into a scratch pool that the previous
// clone's user wrote to. After every operation both devices must hold the
// same bytes in both views and give the same DirtyLines, commit report,
// Persisted and DirtyRead answers.
func FuzzPoolVsDense(f *testing.F) {
	for cfg := range byte(16) {
		rng := rand.New(rand.NewSource(int64(cfg)))
		prog := make([]byte, 600)
		rng.Read(prog)
		f.Add(cfg, prog)
	}
	// A store across the first page boundary, flushed and fenced; an NT
	// store at the pool's last bytes; a zero-size store; a clone whose user
	// stores into it, a second clone into that scratch, and a reboot.
	f.Add(byte(0), []byte{
		0, 1, 0, 1, 3, 3, 100, 9, // store: tid 1, 3 bytes below page 1, 201 bytes
		4, 1, 0, 1, 3, 3, 100, // flush range over the same bytes
		5, 1, // fence
		1, 2, 1, 5, 1, 7, 42, // NT store: tid 2, the pool's last 5 bytes
		0, 2, 2, 0, 9, 0, 1, // zero-size store
		7, 2, 1, 0, 2, 3, 3, 100, 9, 0, // clone; its user stores across page 2
		7, 2, 0, // clone into the dirtied scratch
		6, 0, // reboot
	})
	f.Add(byte(2|8), []byte{0, 1, 3, 5, 2, 20, 3, 0, 2, 1, 3, 5, 1, 4, 7, 1, 3, 5, 2, 20, 8, 2, 3, 5, 6})
	f.Fuzz(func(t *testing.T, cfg byte, prog []byte) {
		runPoolVsDense(t, cfg, prog)
	})
}

// progReader decodes a fuzz program; past its end every byte reads 0.
type progReader struct{ b []byte }

func (r *progReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// addr picks an address in [0, size]: just below a page boundary, among
// the pool's last bytes, anywhere, or at a line start.
func (r *progReader) addr(size uint64) Addr {
	switch r.next() % 4 {
	case 0:
		a := uint64(r.next()) % (size/pageSize + 1) * pageSize
		return a - min(a, uint64(r.next()%64))
	case 1:
		return size - min(size, uint64(r.next()%80))
	case 2:
		return (uint64(r.next())<<8 | uint64(r.next())) % (size + 1)
	default:
		return uint64(r.next()) * LineSize % size
	}
}

// length picks a size that keeps [addr, addr+n) inside the pool: zero, a
// word, up to a line, or up to 511 bytes.
func (r *progReader) length(addr Addr, size uint64) uint64 {
	var n uint64
	switch r.next() % 4 {
	case 0:
	case 1:
		n = 1 + uint64(r.next()%8)
	case 2:
		n = 1 + uint64(r.next()%64)
	default:
		n = 1 + 2*uint64(r.next())
	}
	return min(n, size-addr)
}

// data returns n bytes from a seed byte; every fifth seed gives zeros.
func (r *progReader) data(n uint64) []byte {
	seed := r.next()
	b := make([]byte, n)
	if seed%5 != 0 {
		for i := range b {
			b[i] = seed + byte(i)*7
		}
	}
	return b
}

func runPoolVsDense(t *testing.T, cfg byte, prog []byte) {
	size := uint64(3 * pageSize)
	if cfg&8 != 0 {
		size -= 24 // a partial last line and page
	}
	opts := Options{EADR: cfg&1 != 0, TrackWriters: cfg&2 != 0}
	if cfg&4 != 0 {
		opts.EvictAfter = 3
	}
	sp, dp := New(size, opts), newDensePool(size, opts)
	sp.observe, dp.observe = true, true
	var sClone *Pool
	var dClone *densePool
	r := &progReader{b: prog}
	for step := 0; len(r.b) > 0 && step < 500; step++ {
		sp.commits, dp.commits = sp.commits[:0], dp.commits[:0]
		sp.snapPos, dp.snapPos = step, step
		code := r.next() % 9
		tid := int32(r.next() % 3)
		var lo, n uint64 // the range the op touched, checked below
		var op string
		switch code {
		case 0, 1:
			lo = r.addr(size)
			n = r.length(lo, size)
			data := r.data(n)
			if code == 0 {
				op = fmt.Sprintf("Store(%d, %#x, %d bytes)", tid, lo, n)
				sp.Store(tid, lo, data, int32(step))
				dp.Store(tid, lo, data, int32(step))
			} else {
				op = fmt.Sprintf("NTStore(%d, %#x, %d bytes)", tid, lo, n)
				sp.NTStore(tid, lo, data, int32(step))
				dp.NTStore(tid, lo, data, int32(step))
			}
		case 2:
			lo = r.addr(size)
			n = r.length(lo, size)
			op = fmt.Sprintf("Load(%#x, %d)", lo, n)
			sb, db := make([]byte, n), make([]byte, n)
			sp.Load(lo, sb)
			dp.Load(lo, db)
			if !bytes.Equal(sb, db) {
				t.Fatalf("step %d %s: sparse loads %x, dense %x", step, op, sb, db)
			}
		case 3:
			lo = min(r.addr(size), size-1)
			n = 1
			op = fmt.Sprintf("Flush(%d, %#x)", tid, lo)
			sp.Flush(tid, lo)
			dp.Flush(tid, lo)
		case 4:
			lo = r.addr(size)
			n = r.length(lo, size)
			op = fmt.Sprintf("FlushRange(%d, %#x, %d)", tid, lo, n)
			sp.FlushRange(tid, lo, n)
			dp.FlushRange(tid, lo, n)
		case 5:
			op = fmt.Sprintf("Fence(%d)", tid)
			sp.Fence(tid)
			dp.Fence(tid)
		case 6:
			op = "Reboot"
			sp.Reboot()
			dp.Reboot()
		case 7:
			op = "RebootClone"
			sClone, dClone = sp.RebootClone(sClone), dp.RebootClone(dClone)
			comparePools(t, step, op, sClone, dClone)
			// The clone's user (a recovery probe) writes to it, so the
			// next clone lands on a dirtied scratch.
			for range r.next() % 3 {
				a := r.addr(size)
				d := r.data(r.length(a, size))
				sClone.Store(1, a, d, 0)
				dClone.Store(1, a, d, 0)
				if r.next()%2 == 0 {
					sClone.Flush(1, min(a, size-1))
					dClone.Flush(1, min(a, size-1))
					sClone.Fence(1)
					dClone.Fence(1)
				}
			}
			comparePools(t, step, op+" (dirtied)", sClone, dClone)
		default:
			lo = r.addr(size)
			n = r.length(lo, size)
			op = fmt.Sprintf("query(%#x, %d)", lo, n)
		}
		if !slices.Equal(sp.commits, dp.commits) {
			t.Fatalf("step %d %s: sparse commits %+v, dense %+v", step, op, sp.commits, dp.commits)
		}
		comparePools(t, step, op, sp, dp)
		if got, want := sp.Persisted(lo, n), dp.Persisted(lo, n); got != want {
			t.Fatalf("step %d %s: Persisted(%#x, %d) sparse %v, dense %v", step, op, lo, n, got, want)
		}
		for reader := range int32(3) {
			gw, gs, gok := sp.DirtyRead(reader, lo, n)
			ww, ws, wok := dp.DirtyRead(reader, lo, n)
			if gw != ww || gs != ws || gok != wok {
				t.Fatalf("step %d %s: DirtyRead(%d, %#x, %d) sparse (%d, %d, %v), dense (%d, %d, %v)",
					step, op, reader, lo, n, gw, gs, gok, ww, ws, wok)
			}
		}
	}
}

// comparePools requires a sparse and a dense pool to hold the same bytes in
// both views and count the same dirty lines, and the page nil pages read
// as to still be zero.
func comparePools(t *testing.T, step int, op string, sp *Pool, dp *densePool) {
	t.Helper()
	for _, v := range []struct {
		name   string
		sparse view
		dense  []byte
	}{{"volatile", sp.volatile, dp.volatile}, {"persistent", sp.persistent, dp.persistent}} {
		if at, differ := diffDense(v.sparse, v.dense); differ {
			t.Fatalf("step %d %s: %s views differ at %#x", step, op, v.name, at)
		}
	}
	if sp.DirtyLines() != dp.DirtyLines() {
		t.Fatalf("step %d %s: DirtyLines sparse %d, dense %d", step, op, sp.DirtyLines(), dp.DirtyLines())
	}
	if zeroPage != (page{}) {
		t.Fatalf("step %d %s: the shared zero page was written", step, op)
	}
}

// diffDense returns the first address at which a sparse view and a dense
// image differ.
func diffDense(v view, img []byte) (Addr, bool) {
	for i := range v {
		lo := uint64(i) << pageShift
		want := img[lo:min(lo+pageSize, uint64(len(img)))]
		got := v.at(uint64(i))[:len(want)]
		if !bytes.Equal(got, want) {
			j := 0
			for got[j] == want[j] {
				j++
			}
			return lo + uint64(j), true
		}
	}
	return 0, false
}
