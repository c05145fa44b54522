package ycsb

import "math"

// Zipfian is YCSB's zipfian generator (Gray et al., "Quickly generating
// billion-record synthetic databases", SIGMOD'94 — the exact algorithm in
// YCSB's ZipfianGenerator.java) over the range [0, n): item rank r is drawn
// with probability proportional to 1/r^theta. YCSB's default theta is 0.99.
//
// The scrambled variant (YCSB's scrambled_zipfian, what workload files use
// by default) additionally hashes the rank so that the popular items are
// spread across the key space instead of clustering at its start.
type Zipfian struct {
	n     uint64
	theta float64
	// precomputed constants
	alpha, zetan, eta float64
	rand              func() float64
}

// NewZipfian creates a generator over [0, n) with the given theta, drawing
// uniform randoms from randFn (typically rng.Float64).
func NewZipfian(n uint64, theta float64, randFn func() float64) *Zipfian {
	if n < 2 {
		n = 2
	}
	z := &Zipfian{n: n, theta: theta, rand: randFn}
	zeta2 := zetaStatic(2, theta)
	z.zetan = zetaStatic(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

// zetaPrecomputed holds zetaSum's exact results, as float64 bits, for the
// key spaces the workload specs use with theta 0.99. The sum costs one
// math.Pow per key (~45 ms at 1<<20, most of a workload's generation time);
// TestZetaPrecomputed recomputes every entry.
var zetaPrecomputed = map[uint64]uint64{
	1 << 20: 0x402ee4847517c6bf,
	1 << 16: 0x40289c4466811f63,
}

// zetaStatic returns the generalized harmonic number sum_{i=1..n} 1/i^theta,
// from zetaPrecomputed when it holds (n, theta), like YCSB's cached
// constants for common n.
func zetaStatic(n uint64, theta float64) float64 {
	if bits, ok := zetaPrecomputed[n]; ok && theta == 0.99 {
		return math.Float64frombits(bits)
	}
	return zetaSum(n, theta)
}

// zetaSum computes sum_{i=1..n} 1/i^theta directly.
func zetaSum(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next zipfian rank in [0, n): rank 0 is the most popular.
func (z *Zipfian) Next() uint64 {
	u := z.rand()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// NextScrambled draws a scrambled-zipfian key in [0, n): zipfian popularity,
// uniformly spread identities (YCSB's FNV-hash scramble).
func (z *Zipfian) NextScrambled() uint64 {
	return scramble(z.Next()) % z.n
}
