package hawkset

import "testing"

// pairCost is the true pairing cost of bucket b: stores×loads store-load
// pairs plus n(n-1)/2 store-store pairs, plus the constant bucket overhead —
// the model partitionLines must balance.
func pairCost(bx *bucketIndex, b int, storeStore bool) uint64 {
	stores := uint64(bx.storeOff[b+1] - bx.storeOff[b])
	c := stores*uint64(bx.loadOff[b+1]-bx.loadOff[b]) + 1
	if storeStore {
		c += stores * (stores - 1) / 2
	}
	return c
}

// TestPartitionLinesSkewedSpread: on a synthetic skewed trace shape — a run
// of two-store buckets (1 real store-store pair each) followed by a longer
// run of load-only buckets (0 pairs) — the contiguous partition must stay
// balanced under the true n(n-1)/2 pair model: no shard may exceed the ideal
// share by more than one bucket (the inherent granularity of a contiguous
// greedy split). The old n²/2 model overcharged every n-store bucket by n/2,
// inflating the store region by 50% here, so the boundary landed well inside
// it and left the final shard with a third of the store buckets plus the
// whole load tail — measurably past the bound this test pins.
func TestPartitionLinesSkewedSpread(t *testing.T) {
	bx := &bucketIndex{storeOff: []int{0}, loadOff: []int{0}}
	addLine := func(line uint64, stores, loads int) {
		bx.lines = append(bx.lines, line)
		bx.stores = append(bx.stores, make([]int32, stores)...)
		bx.loads = append(bx.loads, make([]int32, loads)...)
		bx.storeOff = append(bx.storeOff, len(bx.stores))
		bx.loadOff = append(bx.loadOff, len(bx.loads))
	}
	for i := 0; i < 200; i++ {
		addLine(uint64(i), 2, 0) // true cost 2, old model said 3
	}
	for i := 0; i < 400; i++ {
		addLine(uint64(1000+i), 0, 1) // cost 1 in both models
	}

	const workers = 2
	parts := partitionLines(bx, workers, true)
	if len(parts) > workers {
		t.Fatalf("partition produced %d shards for %d workers", len(parts), workers)
	}

	// The partition must be exactly the bucket list, contiguously.
	var flat []uint64
	for _, p := range parts {
		for b := p[0]; b < p[1]; b++ {
			flat = append(flat, bx.lines[b])
		}
	}
	if len(flat) != len(bx.lines) {
		t.Fatalf("partition covers %d lines, want %d", len(flat), len(bx.lines))
	}
	for i := range flat {
		if flat[i] != bx.lines[i] {
			t.Fatalf("partition reordered lines at %d: %d != %d", i, flat[i], bx.lines[i])
		}
	}

	var total, maxBucket uint64
	for b := range bx.lines {
		c := pairCost(bx, b, true)
		total += c
		if c > maxBucket {
			maxBucket = c
		}
	}
	var maxShard uint64
	for _, p := range parts {
		var c uint64
		for b := p[0]; b < p[1]; b++ {
			c += pairCost(bx, b, true)
		}
		if c > maxShard {
			maxShard = c
		}
	}
	if limit := total/workers + maxBucket; maxShard > limit {
		t.Fatalf("max shard cost %d exceeds balanced bound %d (total %d, maxBucket %d)",
			maxShard, limit, total, maxBucket)
	}
}
