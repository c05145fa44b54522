package pmem

import (
	"fmt"
	"slices"
	"testing"
)

// PagesHeld returns how many pages p's volatile and persistent views have
// allocated.
func PagesHeld(p *Pool) (volatile, persistent int) {
	count := func(v view) (n int) {
		for _, pg := range v {
			if pg != nil {
				n++
			}
		}
		return n
	}
	return count(p.volatile), count(p.persistent)
}

// ReplayVsDense applies ops to a Replayer and to a dense reference replayer
// of the given size, and requires the same commit report, dirty-line count,
// Persisted answer and bytes in both views over the range each op touched,
// op for op, and the same whole images halfway and at the end.
func ReplayVsDense(t *testing.T, size uint64, ops []Op) {
	t.Helper()
	sr, dr := NewReplayer(size), newDenseReplayer(size)
	sp, dp := sr.pool, dr.pool
	for i, op := range ops {
		sc, dc := sr.Apply(op), dr.Apply(op)
		what := fmt.Sprintf("%s(%d, %#x, %d)", op.Kind, op.TID, op.Addr, op.Size)
		if !slices.Equal(sc, dc) {
			t.Fatalf("op %d %s: sparse commits %+v, dense %+v", i, what, sc, dc)
		}
		if sp.DirtyLines() != dp.DirtyLines() {
			t.Fatalf("op %d %s: DirtyLines sparse %d, dense %d", i, what, sp.DirtyLines(), dp.DirtyLines())
		}
		lo, n := op.Addr, uint64(op.Size)
		if op.Kind == OpFlush {
			lo, n = LineOf(op.Addr)*LineSize, min(LineSize, size-LineOf(op.Addr)*LineSize)
		}
		ranges := [][2]uint64{{lo, n}}
		for _, c := range sc {
			ranges = append(ranges, [2]uint64{c.Addr, c.Size})
		}
		for _, r := range ranges {
			got, want := make([]byte, r[1]), dp.volatile[r[0]:r[0]+r[1]]
			sp.volatile.read(r[0], got)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d %s: volatile [%#x, +%d) sparse %x, dense %x", i, what, r[0], r[1], got, want)
			}
			want = dp.persistent[r[0] : r[0]+r[1]]
			sp.persistent.read(r[0], got)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d %s: persistent [%#x, +%d) sparse %x, dense %x", i, what, r[0], r[1], got, want)
			}
			if sp.Persisted(r[0], r[1]) != dp.Persisted(r[0], r[1]) {
				t.Fatalf("op %d %s: Persisted(%#x, %d) differs", i, what, r[0], r[1])
			}
		}
		if i == len(ops)/2 || i == len(ops)-1 {
			comparePools(t, i, what, sp, dp)
		}
	}
}
