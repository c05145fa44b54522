package ycsb

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultSpec(1000), 7)
	b := Generate(DefaultSpec(1000), 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different workloads")
	}
	c := Generate(DefaultSpec(1000), 8)
	if reflect.DeepEqual(a.Threads, c.Threads) {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestGenerateCountsAndSplit(t *testing.T) {
	w := Generate(DefaultSpec(1000), 1)
	if len(w.Load) != 1000 {
		t.Fatalf("load ops = %d", len(w.Load))
	}
	if w.TotalOps() != 1000 {
		t.Fatalf("total ops = %d", w.TotalOps())
	}
	if len(w.Threads) != 8 {
		t.Fatalf("threads = %d", len(w.Threads))
	}
	for i, ops := range w.Threads {
		if len(ops) != 125 {
			t.Fatalf("thread %d has %d ops", i, len(ops))
		}
	}
}

func TestMixProportions(t *testing.T) {
	w := Generate(DefaultSpec(20000), 3)
	counts := map[OpKind]int{}
	for _, ops := range w.Threads {
		for _, op := range ops {
			counts[op.Kind]++
		}
	}
	frac := func(k OpKind) float64 { return float64(counts[k]) / 20000 }
	for _, c := range []struct {
		k    OpKind
		want float64
	}{{OpInsert, .3}, {OpUpdate, .3}, {OpGet, .3}, {OpDelete, .1}} {
		if got := frac(c.k); got < c.want-0.03 || got > c.want+0.03 {
			t.Errorf("%v fraction = %.3f, want ≈%.2f", c.k, got, c.want)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	w := Generate(DefaultSpec(20000), 5)
	counts := map[uint64]int{}
	total := 0
	for _, ops := range w.Threads {
		for _, op := range ops {
			counts[op.Key]++
			total++
		}
	}
	// The hottest key of a zipfian stream must be much hotter than uniform.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < total/100 {
		t.Fatalf("hottest key has %d/%d accesses; distribution looks uniform", max, total)
	}
}

func TestFileSpec(t *testing.T) {
	w := Generate(FileSpec(1000), 2)
	if len(w.Load) != 0 {
		t.Fatal("file workload has a load phase")
	}
	for _, ops := range w.Threads {
		for _, op := range ops {
			if op.Kind != OpWrite {
				t.Fatalf("unexpected op %v", op.Kind)
			}
			if op.Len != 4096 {
				t.Fatalf("write len = %d", op.Len)
			}
			if op.Off%4096 != 0 || op.Off+op.Len > 4<<20 {
				t.Fatalf("write off = %d out of range/alignment", op.Off)
			}
		}
	}
}

// TestFSSpecShape: the filesystem workload populates the namespace with
// creates, draws a destination path for every rename, and uses every
// operation of the POSIX mix.
func TestFSSpecShape(t *testing.T) {
	w := Generate(FSSpec(4000), 11)
	if len(w.Load) != 64 {
		t.Fatalf("load ops = %d, want 64", len(w.Load))
	}
	for _, op := range w.Load {
		if op.Kind != OpCreate {
			t.Fatalf("load phase op = %v, want create", op.Kind)
		}
	}
	seen := map[OpKind]bool{}
	renames, moved := 0, 0
	for _, ops := range w.Threads {
		for _, op := range ops {
			seen[op.Kind] = true
			if op.Kind == OpRename {
				renames++
				if op.Value != op.Key {
					moved++
				}
			}
		}
	}
	// Destinations come from their own zipf draw, so nearly all renames
	// actually move the name.
	if renames == 0 || moved < renames/2 {
		t.Fatalf("rename destinations look undrawn: %d renames, %d with a distinct destination", renames, moved)
	}
	for _, k := range []OpKind{OpCreate, OpWrite, OpAppend, OpRename, OpUnlink, OpRead} {
		if !seen[k] {
			t.Errorf("operation %v never generated", k)
		}
	}
}

// TestFSSpecDeterministic: two same-seed FSSpec generators produce identical
// streams — the property every campaign and differential rests on.
func TestFSSpecDeterministic(t *testing.T) {
	a := Generate(FSSpec(2000), 42)
	b := Generate(FSSpec(2000), 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different filesystem workloads")
	}
	c := Generate(FSSpec(2000), 43)
	if reflect.DeepEqual(a.Threads, c.Threads) {
		t.Fatal("different seeds produced identical filesystem workloads")
	}
}

// TestSpecGoldens pins the first operations of the pre-existing specs to
// hardcoded values: adding the filesystem op kinds and LoadKind must not
// shift the RNG stream of any existing workload — recorded campaigns and
// cross-version comparisons depend on byte-identical regeneration.
func TestSpecGoldens(t *testing.T) {
	w := Generate(DefaultSpec(24), 42)
	wantLoad := []Op{
		{Kind: OpInsert, Key: 783774, Value: 9832119173398632219},
		{Kind: OpInsert, Key: 663324, Value: 1926012586526624009},
		{Kind: OpInsert, Key: 904623, Value: 3534334367214237261},
	}
	if !reflect.DeepEqual(w.Load[:3], wantLoad) {
		t.Fatalf("DefaultSpec load stream shifted:\n got %+v\nwant %+v", w.Load[:3], wantLoad)
	}
	wantMain := []Op{
		{Kind: OpGet, Key: 492591, Value: 3250603394152834696},
		{Kind: OpGet, Key: 279271, Value: 4124062994344535519},
		{Kind: OpInsert, Key: 1040384, Value: 15350457090105392934},
	}
	if !reflect.DeepEqual(w.Threads[0], wantMain) {
		t.Fatalf("DefaultSpec main stream shifted:\n got %+v\nwant %+v", w.Threads[0], wantMain)
	}
	f := Generate(FileSpec(24), 7)
	wantFile := []Op{
		{Kind: OpWrite, Key: 3543, Value: 11449779372969249750, Off: 2293760, Len: 4096},
		{Kind: OpWrite, Key: 43035, Value: 7527948831010731783, Off: 503808, Len: 4096},
		{Kind: OpWrite, Key: 19158, Value: 14107507587918963079, Off: 8192, Len: 4096},
	}
	if !reflect.DeepEqual(f.Threads[0], wantFile) {
		t.Fatalf("FileSpec stream shifted:\n got %+v\nwant %+v", f.Threads[0], wantFile)
	}
}

func TestMemcachedSpecUsesAllCommands(t *testing.T) {
	w := Generate(MemcachedSpec(10000), 4)
	seen := map[OpKind]bool{}
	for _, ops := range w.Threads {
		for _, op := range ops {
			seen[op.Kind] = true
		}
	}
	for _, k := range []OpKind{OpSet, OpGet, OpAdd, OpReplace, OpAppend, OpPrepend, OpCAS, OpDelete, OpIncr, OpDecr} {
		if !seen[k] {
			t.Errorf("command %v never generated", k)
		}
	}
}

func TestSeedsCorpus(t *testing.T) {
	seeds := Seeds(240, 1000)
	if len(seeds) != 240 {
		t.Fatalf("seeds = %d", len(seeds))
	}
	if seeds[0].TotalOps() != 400 {
		t.Fatalf("seed ops = %d, want 400 (PMRace seed size)", seeds[0].TotalOps())
	}
	if reflect.DeepEqual(seeds[0].Threads, seeds[1].Threads) {
		t.Fatal("distinct seeds identical")
	}
}

func TestMutatePerturbsButPreservesShape(t *testing.T) {
	w := Generate(DefaultSpec(1000), 9)
	m := Mutate(w, 42)
	if m.TotalOps() != w.TotalOps() {
		t.Fatal("mutation changed op count")
	}
	if reflect.DeepEqual(m.Threads, w.Threads) {
		t.Fatal("mutation changed nothing")
	}
	if !reflect.DeepEqual(Mutate(w, 42), m) {
		t.Fatal("mutation not deterministic")
	}
}

func TestOpKindString(t *testing.T) {
	if OpInsert.String() != "insert" || OpWrite.String() != "write" {
		t.Fatal("OpKind.String broken")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, spec := range []Spec{DefaultSpec(500), FileSpec(200), MemcachedSpec(300), FSSpec(400)} {
		w := Generate(spec, 13)
		var buf bytes.Buffer
		if err := Save(&buf, w); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != w.Name || got.Seed != w.Seed {
			t.Fatalf("header differs: %q/%d vs %q/%d", got.Name, got.Seed, w.Name, w.Seed)
		}
		if !reflect.DeepEqual(got.Load, w.Load) {
			t.Fatal("load phase differs after round trip")
		}
		if !reflect.DeepEqual(got.Threads, w.Threads) {
			t.Fatal("thread ops differ after round trip")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"frobnicate 1\n",
		"op get 1 2\n",              // op before thread
		"thread 0\nop nosuch 1 2\n", // unknown kind
		"thread x\n",
		"seed notanumber\n",
		"thread 0\nop get 1\n", // missing fields
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Fatalf("accepted %q", c)
		}
	}
}

func TestLoadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nworkload w\nseed 9\n\n# ops\nthread 0\nop get 5 0\n"
	w, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w.Seed != 9 || len(w.Threads) != 1 || len(w.Threads[0]) != 1 {
		t.Fatalf("parsed %+v", w)
	}
}

func TestZipfianBoundsAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	z := NewZipfian(1000, 0.99, rng.Float64)
	var a []uint64
	for i := 0; i < 5000; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("rank %d out of range", v)
		}
		a = append(a, v)
	}
	rng2 := rand.New(rand.NewSource(7))
	z2 := NewZipfian(1000, 0.99, rng2.Float64)
	for i := range a {
		if got := z2.Next(); got != a[i] {
			t.Fatalf("not deterministic at %d: %d vs %d", i, got, a[i])
		}
	}
}

func TestZipfianSkewTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := NewZipfian(10000, 0.99, rng.Float64)
	counts := map[uint64]int{}
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Under theta=0.99 the most popular rank takes a large share; YCSB's
	// rank-0 probability for n=10k is ≈ 1/zeta(10k, .99) ≈ 9-10%.
	if frac := float64(counts[0]) / draws; frac < 0.05 || frac > 0.2 {
		t.Fatalf("rank-0 share = %.3f, want ≈0.1 (theta=0.99)", frac)
	}
	// Rank popularity must be monotone-ish: rank 0 > rank 100.
	if counts[0] <= counts[100] {
		t.Fatalf("rank 0 (%d draws) not hotter than rank 100 (%d)", counts[0], counts[100])
	}
}

func TestScrambledSpreads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z := NewZipfian(1<<16, 0.99, rng.Float64)
	// The hottest scrambled keys must not cluster in the low range.
	low := 0
	for i := 0; i < 2000; i++ {
		if z.NextScrambled() < 1<<10 {
			low++
		}
	}
	if low > 400 { // uniform expectation ≈ 2000/64 ≈ 31; allow heavy-hitter noise
		t.Fatalf("%d/2000 scrambled keys in the lowest 1/64 of the space — scrambling broken", low)
	}
}

// TestZetaPrecomputed recomputes every precomputed zeta constant with the
// loop; the workloads depend on the exact bits.
func TestZetaPrecomputed(t *testing.T) {
	for n, bits := range zetaPrecomputed {
		if got := math.Float64bits(zetaSum(n, 0.99)); got != bits {
			t.Errorf("zeta(%d, 0.99) = %#x, table holds %#x", n, got, bits)
		}
	}
}
