package hawkset

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"unsafe"

	"hawkset/internal/sites"
	"hawkset/internal/trace"
)

// len returns the entries in use across the table's segments.
func (d *segDir[E]) len() int {
	n := 0
	for i := 0; i < len(d.dir); i += 1 << (d.global - d.dir[i].seg.depth) {
		n += d.dir[i].seg.used
	}
	return n
}

// segments returns the first slots of the table's segments.
func (d *segDir[E]) segments() map[unsafe.Pointer]bool {
	segs := map[unsafe.Pointer]bool{}
	for _, r := range d.dir {
		segs[unsafe.Pointer(&r.slots[0])] = true
	}
	return segs
}

// is reports whether directory slots r and q hold the same segment.
func (r segRef[E]) is(q segRef[E]) bool { return r.seg == q.seg && &r.slots[0] == &q.slots[0] }

// inverse returns the multiplicative inverse of odd c modulo 2^64.
func inverse(c uint64) uint64 {
	x := c
	for range 6 {
		x *= 2 - c*x
	}
	return x
}

// unhash returns the a for which hash2(a, b) == h.
func unhash(h, b uint64) uint64 {
	x := h ^ h>>32
	x *= inverse(0xBF58476D1CE4E5B9)
	x ^= x>>29 ^ x>>58
	return (x ^ b*0xC2B2AE3D27D4EB4F) * inverse(0x9E3779B97F4A7C15)
}

// checkDir holds a table to the map ref of its keys and values. The
// directory has 2^global slots; a segment of depth d fills 2^(global-d)
// aligned slots and no others; every entry in use sits in the segment its
// hash's directory slot points at and is what find returns for its key;
// each segment counts its entries; and a walk of the segments yields
// exactly the map's keys, with their values.
func checkDir[E slot](d *segDir[E], kv func(*E) (uint64, uint64), find func(uint64) *E, ref map[uint64]uint64) error {
	if d.dir == nil {
		if len(ref) > 0 {
			return fmt.Errorf("no segment holds the %d keys of the map", len(ref))
		}
		return nil
	}
	if len(d.dir) != 1<<d.global {
		return fmt.Errorf("directory of %d slots at global depth %d", len(d.dir), d.global)
	}
	seen := map[*segment]bool{}
	walked := 0
	for i := 0; i < len(d.dir); {
		r := d.dir[i]
		if seen[r.seg] || r.seg.depth > d.global {
			return fmt.Errorf("slot %d: segment of depth %d seen before, or deeper than the directory (%d)", i, r.seg.depth, d.global)
		}
		seen[r.seg] = true
		n := 1 << (d.global - r.seg.depth)
		if i%n != 0 {
			return fmt.Errorf("segment of depth %d starts at unaligned slot %d of %d", r.seg.depth, i, len(d.dir))
		}
		for k := i + 1; k < i+n; k++ {
			if !d.dir[k].is(r) {
				return fmt.Errorf("slot %d: a segment of depth %d at slot %d should fill it", k, r.seg.depth, i)
			}
		}
		used := 0
		for j := range r.slots {
			e := &r.slots[j]
			h, live := (*e).home(d.seed)
			if !live {
				continue
			}
			used++
			if got := int(h>>(64-d.global)) &^ (n - 1); got != i {
				return fmt.Errorf("an entry of directory slot %d sits in the segment at slot %d", got, i)
			}
			k, v := kv(e)
			if want, ok := ref[k]; !ok || v != want {
				return fmt.Errorf("walk yields key %#x with value %d; the map has %d (present %v)", k, v, want, ok)
			}
			if find(k) != e {
				return fmt.Errorf("key %#x is not reachable from its home slot", k)
			}
			walked++
		}
		if used != r.seg.used {
			return fmt.Errorf("segment at slot %d counts %d entries and holds %d", i, r.seg.used, used)
		}
		i += n
	}
	if walked != len(ref) {
		return fmt.Errorf("walk yields %d keys, the map holds %d", walked, len(ref))
	}
	return nil
}

// testTable drives one of the replay tables through uniform operations on
// uint64 keys, each with a count as its value.
type testTable interface {
	// add inserts k with count 1, or adds one to its count, and returns the
	// count.
	add(k uint64) uint64
	// get returns k's count, or false if k is absent.
	get(k uint64) (uint64, bool)
	// del removes k if present; it returns false, and does nothing, for the
	// tables that never delete.
	del(k uint64) bool
	check(ref map[uint64]uint64) error
	// checkSeg checks that every entry of the segment k's hash maps to is
	// reachable from its home slot, and that the segment counts them.
	checkSeg(k uint64) error
	// hash returns the hash that places k.
	hash(k uint64) uint64
	// craft returns a key whose hash agrees with h in its top 16 bits and
	// its low segBits bits.
	craft(h uint64, rng *rand.Rand) uint64
	dir() (global uint8, segs int)
	seg(k uint64) *segment
	segments() map[unsafe.Pointer]bool
	// logBytes returns the bytes of the record log's chunks, or 0 for a
	// table that keeps no log.
	logBytes() uint64
}

// logBytes returns the bytes of l's chunks.
func logBytes[T any](l *Records[T]) uint64 {
	return uint64(len(l.chunks)) * uint64(unsafe.Sizeof([chunkSize]T{}))
}

func newTestTable(kind int, seed uint64) testTable {
	switch kind {
	case 0:
		return &testLines{lineTab{segDir: segDir[lineEntry]{seed: seed}}}
	case 1:
		return &testPubs{pubTab{segDir[pubEntry]{seed: seed}}}
	case 2:
		return &testRecs{recTab[testRec]{segDir: segDir[recSlot]{seed: seed}}}
	default:
		return &testLoads{recTab[LoadData]{segDir: segDir[recSlot]{seed: seed}}}
	}
}

var tableKinds = []string{"line", "pub", "rec", "load"}

// dirOf returns the global depth and the segment count of d.
func dirOf[E slot](d *segDir[E]) (uint8, int) {
	n := 0
	for i := 0; i < len(d.dir); i += 1 << (d.global - d.dir[i].seg.depth) {
		n++
	}
	return d.global, n
}

func segOf[E slot](d *segDir[E], h uint64) *segment {
	if d.dir == nil {
		return nil
	}
	return d.at(h).seg
}

// craftKey varies the middle bits of h until valid accepts the key it
// unhashes to.
func craftKey(h uint64, rng *rand.Rand, key func(h uint64) (uint64, bool)) uint64 {
	const mid = (1<<48 - 1) &^ segMask
	for {
		if k, ok := key(h&^mid | rng.Uint64()&mid); ok {
			return k
		}
	}
}

type testLines struct{ t lineTab }

func (a *testLines) add(k uint64) uint64 {
	e := a.t.insert(k)
	e.epoch++
	return e.epoch
}

func (a *testLines) get(k uint64) (uint64, bool) {
	if e := a.t.find(k); e != nil {
		return e.epoch, true
	}
	return 0, false
}

func (a *testLines) del(k uint64) bool {
	if e := a.t.find(k); e != nil {
		a.t.remove(e)
	}
	return true
}

func (a *testLines) check(ref map[uint64]uint64) error {
	return checkDir(&a.t.segDir, func(e *lineEntry) (uint64, uint64) { return e.key - 1, e.epoch }, a.t.find, ref)
}

func (a *testLines) checkSeg(k uint64) error {
	r := a.t.at(a.hash(k))
	start := 0
	for r.slots[start].key != 0 {
		start++
	}
	used, empty := 0, start
	for d := 1; d <= segSize; d++ {
		i := (start + d) & segMask
		e := &r.slots[i]
		if e.key == 0 {
			empty = i
			continue
		}
		used++
		h := a.hash(e.key - 1)
		if !a.t.at(h).is(r) || (i-int(h&segMask))&segMask >= (i-empty)&segMask {
			return fmt.Errorf("line %#x is not reachable from its home slot", e.key-1)
		}
	}
	if used != r.seg.used {
		return fmt.Errorf("segment counts %d lines and holds %d", r.seg.used, used)
	}
	return nil
}

func (a *testLines) hash(k uint64) uint64 { return hash2(k^a.t.seed, 0) }
func (a *testLines) craft(h uint64, rng *rand.Rand) uint64 {
	return craftKey(h, rng, func(h uint64) (uint64, bool) { k := unhash(h, 0) ^ a.t.seed; return k, k+1 != 0 })
}
func (a *testLines) dir() (uint8, int)     { return dirOf(&a.t.segDir) }
func (a *testLines) seg(k uint64) *segment { return segOf(&a.t.segDir, a.hash(k)) }
func (a *testLines) segments() map[unsafe.Pointer]bool {
	return a.t.segments()
}
func (a *testLines) logBytes() uint64 { return 0 }

type testPubs struct{ t pubTab }

func (a *testPubs) add(k uint64) uint64 {
	e := a.t.lookup(k)
	if !e.live {
		*e = pubEntry{addr: k, live: true}
		a.t.grew(e)
		e = a.t.lookup(k)
	}
	e.epoch++
	return e.epoch
}

func (a *testPubs) get(k uint64) (uint64, bool) {
	e := a.t.lookup(k)
	return e.epoch, e.live
}

func (a *testPubs) del(uint64) bool       { return false }
func (a *testPubs) checkSeg(uint64) error { return nil }

func (a *testPubs) check(ref map[uint64]uint64) error {
	find := func(k uint64) *pubEntry {
		if e := a.t.lookup(k); e.live {
			return e
		}
		return nil
	}
	return checkDir(&a.t.segDir, func(e *pubEntry) (uint64, uint64) { return e.addr, e.epoch }, find, ref)
}

func (a *testPubs) hash(k uint64) uint64 { return hash2(k^a.t.seed, 0) }
func (a *testPubs) craft(h uint64, rng *rand.Rand) uint64 {
	return craftKey(h, rng, func(h uint64) (uint64, bool) { return unhash(h, 0) ^ a.t.seed, true })
}
func (a *testPubs) dir() (uint8, int)     { return dirOf(&a.t.segDir) }
func (a *testPubs) seg(k uint64) *segment { return segOf(&a.t.segDir, a.hash(k)) }
func (a *testPubs) segments() map[unsafe.Pointer]bool {
	return a.t.segments()
}
func (a *testPubs) logBytes() uint64 { return 0 }

// testRec is a record of key, whose hash ignores its lowest bit.
type testRec struct{ key, count uint64 }

func (r testRec) same(o *testRec) bool { return r.key == o.key }

// slotOf returns the index slot of the record rec is the same as, whose
// hash is h, or nil.
func (t *recTab[T]) slotOf(rec T, h uint64) *recSlot {
	if t.dir == nil {
		return nil
	}
	fp := h >> 32
	h = fp<<32 | fp
	s := t.at(h).slots
	for i := h; ; i++ {
		e := &s[i&segMask]
		switch {
		case *e == 0:
			return nil
		case uint64(*e)>>32 == fp && rec.same(t.log.At(int(uint32(*e)-1))):
			return e
		}
	}
}

// checkRecTab holds t's index to its log: every ordinal below the log's
// length is named by exactly one slot, whose fingerprint is that of the
// record's hash, and no slot names an ordinal at or past it.
func checkRecTab[T record[T]](t *recTab[T], hash func(*T) uint64) error {
	named := make([]bool, t.log.Len())
	for e := range t.all {
		if *e == 0 {
			continue
		}
		ord := int(uint32(*e) - 1)
		if ord >= len(named) || named[ord] {
			return fmt.Errorf("ordinal %d named twice, or past the %d records of the log", ord, len(named))
		}
		named[ord] = true
		if fp := uint64(*e) >> 32; fp != hash(t.log.At(ord))>>32 {
			return fmt.Errorf("record %d's slot holds fingerprint %#x, its hash %#x", ord, fp, hash(t.log.At(ord))>>32)
		}
	}
	for ord, ok := range named {
		if !ok {
			return fmt.Errorf("no slot names record %d of %d", ord, len(named))
		}
	}
	return nil
}

// testRecs drives the index of a recTab of testRecs: every two keys that
// differ in their lowest bit share a hash, so their fingerprints match and
// only the record tells them apart.
type testRecs struct{ t recTab[testRec] }

func (a *testRecs) hash(k uint64) uint64 { return hash2(k>>1^a.t.seed, 0) }

func (a *testRecs) add(k uint64) uint64 {
	d, _ := a.t.add(testRec{key: k}, a.hash(k))
	d.count++
	return d.count
}

func (a *testRecs) get(k uint64) (uint64, bool) {
	if e := a.t.slotOf(testRec{key: k}, a.hash(k)); e != nil {
		return a.t.log.At(int(uint32(*e) - 1)).count, true
	}
	return 0, false
}

func (a *testRecs) del(uint64) bool       { return false }
func (a *testRecs) checkSeg(uint64) error { return nil }

func (a *testRecs) check(ref map[uint64]uint64) error {
	if err := checkRecTab(&a.t, func(r *testRec) uint64 { return a.hash(r.key) }); err != nil {
		return err
	}
	kv := func(e *recSlot) (uint64, uint64) {
		r := a.t.log.At(int(uint32(*e) - 1))
		return r.key, r.count
	}
	find := func(k uint64) *recSlot { return a.t.slotOf(testRec{key: k}, a.hash(k)) }
	return checkDir(&a.t.segDir, kv, find, ref)
}

// home is where the index places a hash: its fingerprint's.
func home(h uint64) uint64 { return h>>32<<32 | h>>32 }

// craftHash returns a hash whose home agrees with h in its top 16 bits and
// its low segBits bits.
func craftHash(h uint64, rng *rand.Rand) uint64 {
	return h&^(1<<48-1) | rng.Uint64()&(1<<48-1)&^(segMask<<32) | h&segMask<<32
}

func (a *testRecs) craft(h uint64, rng *rand.Rand) uint64 {
	for {
		if k := unhash(craftHash(h, rng), 0) ^ a.t.seed; k>>63 == 0 {
			return k<<1 | rng.Uint64()&1
		}
	}
}
func (a *testRecs) dir() (uint8, int)     { return dirOf(&a.t.segDir) }
func (a *testRecs) seg(k uint64) *segment { return segOf(&a.t.segDir, home(a.hash(k))) }
func (a *testRecs) segments() map[unsafe.Pointer]bool {
	return a.t.segments()
}
func (a *testRecs) logBytes() uint64 { return logBytes(&a.t.log) }

// testLoads drives the index of a recTab of load records, of address k and
// thread k>>60, through the load records' own hash.
type testLoads struct{ t recTab[LoadData] }

func loadOf(k uint64) LoadData { return LoadData{TID: int32(k >> 60), Addr: k, Size: 8, Count: 1} }

func (a *testLoads) add(k uint64) uint64 {
	ld := loadOf(k)
	d, added := a.t.add(ld, ld.hash(a.t.seed))
	if !added {
		d.Count++
	}
	return d.Count
}

func (a *testLoads) get(k uint64) (uint64, bool) {
	ld := loadOf(k)
	if e := a.t.slotOf(ld, ld.hash(a.t.seed)); e != nil {
		return a.t.log.At(int(uint32(*e) - 1)).Count, true
	}
	return 0, false
}

func (a *testLoads) del(uint64) bool       { return false }
func (a *testLoads) checkSeg(uint64) error { return nil }

func (a *testLoads) check(ref map[uint64]uint64) error {
	if err := checkRecTab(&a.t, func(d *LoadData) uint64 { return d.hash(a.t.seed) }); err != nil {
		return err
	}
	kv := func(e *recSlot) (uint64, uint64) {
		d := a.t.log.At(int(uint32(*e) - 1))
		if !loadOf(d.Addr).same(d) {
			return d.Addr, math.MaxUint64 // not the record of its address
		}
		return d.Addr, d.Count
	}
	find := func(k uint64) *recSlot { ld := loadOf(k); return a.t.slotOf(ld, ld.hash(a.t.seed)) }
	return checkDir(&a.t.segDir, kv, find, ref)
}

func (a *testLoads) hash(k uint64) uint64 { ld := loadOf(k); return ld.hash(a.t.seed) }

// craft unhashes a crafted hash through both levels of recHash.
func (a *testLoads) craft(h uint64, rng *rand.Rand) uint64 {
	for {
		tid := rng.Uint64() >> 60
		ld := loadOf(tid << 60)
		c := uint64(uint32(ld.Site))<<32 | uint64(uint32(ld.LS))
		k := unhash(unhash(craftHash(h, rng), uint64(uint32(ld.VC)))^c, uint64(ld.Size)<<32|tid) ^ a.t.seed
		if k>>60 == tid {
			return k
		}
	}
}
func (a *testLoads) dir() (uint8, int)     { return dirOf(&a.t.segDir) }
func (a *testLoads) seg(k uint64) *segment { return segOf(&a.t.segDir, home(a.hash(k))) }
func (a *testLoads) segments() map[unsafe.Pointer]bool {
	return a.t.segments()
}
func (a *testLoads) logBytes() uint64 { return logBytes(&a.t.log) }

// keyShapes draw the keys a table test inserts: random words; a dense run
// of small integers; random words of which one in eight is crafted so that
// its hash has one of six home slots at the ends of a segment, where probe
// runs grow long and wrap; or random words of which half are crafted so
// that their hashes begin with three zero bits, so that segments there
// split deeper than the rest and the others, when they split, still fill
// several directory slots each.
var keyShapes = []string{"random", "dense", "colliding", "skewed"}

func keyGen(tab testTable, shape int, rng *rand.Rand) func() uint64 {
	switch shape {
	case 0:
		return rng.Uint64
	case 1:
		next := uint64(0)
		return func() uint64 { next++; return next }
	case 2:
		return func() uint64 {
			if rng.IntN(8) != 0 {
				return rng.Uint64()
			}
			slot := (segSize - 3 + rng.Uint64N(6)) & segMask
			return tab.craft(rng.Uint64()&^(1<<48-1)|slot, rng)
		}
	default:
		return func() uint64 {
			if rng.IntN(2) == 0 {
				return rng.Uint64()
			}
			return tab.craft(rng.Uint64()>>3, rng)
		}
	}
}

// driveTable runs ops random operations on tab and a map: adds of new
// keys, repeated adds (hits) and lookups of present keys, lookups of absent
// ones and, one op in delPer, deletes (lineTab only). The key each op
// touches is checked against the map at once. The whole table is checked
// (checkDir) whenever its segment count or directory changes, every 4,096
// ops and at the end; after a delete, every entry of the segment it shifted
// entries in must still be reachable.
func driveTable(tab testTable, shape int, rng *rand.Rand, ops, delPer int) error {
	gen := keyGen(tab, shape, rng)
	ref := map[uint64]uint64{}
	var keys []uint64
	global, segs := tab.dir()
	for op := range ops {
		var k uint64
		switch r := rng.IntN(100); {
		case r < 75 || len(keys) == 0:
			if r < 55 || len(keys) == 0 {
				k = gen()
				if _, ok := ref[k]; !ok {
					keys = append(keys, k)
				}
			} else {
				k = keys[rng.IntN(len(keys))]
			}
			ref[k]++
			if got := tab.add(k); got != ref[k] {
				return fmt.Errorf("op %d: add(%#x) counts %d, want %d", op, k, got, ref[k])
			}
		case delPer > 0 && r%delPer == 0:
			k = keys[rng.IntN(len(keys))]
			if !tab.del(k) {
				break
			}
			delete(ref, k)
			if _, ok := tab.get(k); ok {
				return fmt.Errorf("op %d: %#x found after its delete", op, k)
			}
			if err := tab.checkSeg(k); err != nil {
				return fmt.Errorf("op %d: after deleting %#x: %v", op, k, err)
			}
		default:
			k = rng.Uint64()
			if rng.IntN(2) == 0 {
				k = keys[rng.IntN(len(keys))]
			}
			got, ok := tab.get(k)
			if want, in := ref[k]; ok != in || got != want && in {
				return fmt.Errorf("op %d: get(%#x) = %d, %v; the map has %d, %v", op, k, got, ok, want, in)
			}
		}
		g, n := tab.dir()
		if g != global || n != segs || op%4096 == 0 || op == ops-1 {
			global, segs = g, n
			if err := tab.check(ref); err != nil {
				return fmt.Errorf("op %d (%d keys, %d segments, global depth %d): %v", op, len(ref), n, g, err)
			}
		}
	}
	return nil
}

// FuzzReplayTables drives each replay table with long random sequences of
// operations, held against a Go map (driveTable), with enough keys to split
// segments several times and double the directory. The inputs pick the
// table, the key shape, the delete rate and the random seed, which is also
// the table's hash seed.
func FuzzReplayTables(f *testing.F) {
	for kind := range tableKinds {
		for shape := range keyShapes {
			f.Add(byte(kind), byte(shape), byte(7), uint64(kind*len(keyShapes)+shape))
		}
	}
	f.Fuzz(func(t *testing.T, kind, shape, delPer byte, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, 1))
		k := int(kind) % len(tableKinds)
		tab := newTestTable(k, rng.Uint64())
		if err := driveTable(tab, int(shape)%len(keyShapes), rng, 24_000, int(delPer)%16); err != nil {
			t.Fatalf("%s table, %s keys: %v", tableKinds[k], keyShapes[int(shape)%len(keyShapes)], err)
		}
		// Even with a delete in every fourth op, the keys outgrow two splits.
		// However the keys are crafted, splits tell them apart by their
		// hashes' bits below the crafted ones (for the index, its
		// fingerprints'), so the directory stays shallow.
		if g, n := tab.dir(); g < 2 || n < 3 || g > 8 {
			t.Fatalf("%s table: %d segments at global depth %d; the test never split enough, or split too deep", tableKinds[k], n, g)
		}
	})
}

// TestTablesSplitAtThreeQuarters: each table splits a segment exactly when
// an insert leaves more than three quarters of its slots in use. A split
// allocates one segment and, when the directory doubles, the new directory,
// keeps every segment the table had, and doubles the directory only for a
// segment as deep as it. Over all inserts, the table allocates no more than
// the segments it ends with, the directories it ever had and, for the
// record index, its log's chunks: no insert copies the table or the log.
func TestTablesSplitAtThreeQuarters(t *testing.T) {
	const n = 16_000
	// The counts are the process's: the runtime allocates a little now and
	// then (a collection that starts its mark workers allocates 5 KiB), so
	// they may exceed the tables' by slack, far less than a segment.
	const slack = 8 << 10
	for kind, name := range tableKinds {
		rng := rand.New(rand.NewPCG(uint64(kind), 2))
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		var segBytes, refBytes uintptr
		switch kind {
		case 0:
			segBytes, refBytes = unsafe.Sizeof([segSize]lineEntry{}), unsafe.Sizeof(segRef[lineEntry]{})
		case 1:
			segBytes, refBytes = unsafe.Sizeof([segSize]pubEntry{}), unsafe.Sizeof(segRef[pubEntry]{})
		default:
			segBytes, refBytes = unsafe.Sizeof([segSize]recSlot{}), unsafe.Sizeof(segRef[recSlot]{})
		}
		segBytes += unsafe.Sizeof(segment{})

		tab := newTestTable(kind, 0)
		splits, doublings := 0, 0
		var dirBytes uint64 // every directory the table had
		ref := map[uint64]uint64{}
		for i, k := range keys {
			ref[k]++
			global, segs := tab.dir()
			s := tab.seg(k)
			var before, after runtime.MemStats
			var had map[unsafe.Pointer]bool
			split := s != nil && s.used == 3*segSize/4
			logged := tab.logBytes()
			if split {
				had = tab.segments()
				runtime.ReadMemStats(&before)
			}
			tab.add(k)
			g, n := tab.dir()
			if !split {
				if g != global || n != max(segs, 1) {
					t.Fatalf("%s, insert %d: no segment was over three quarters, yet %d segments at depth %d became %d at %d", name, i, segs, global, n, g)
				}
				if i == 0 {
					dirBytes += uint64(refBytes)
				}
				continue
			}
			runtime.ReadMemStats(&after)
			splits++
			if n != segs+1 || g != global && (g != global+1 || s.depth != g) {
				t.Fatalf("%s, insert %d: a split took %d segments at depth %d to %d at %d (split segment now depth %d)", name, i, segs, global, n, g, s.depth)
			}
			want := uint64(segBytes) + tab.logBytes() - logged
			if g != global {
				doublings++
				want += uint64(refBytes) << g
				dirBytes += uint64(refBytes) << g
			}
			if got := after.TotalAlloc - before.TotalAlloc; got < want || got > want+slack {
				t.Errorf("%s, insert %d: a split allocated %d B, want %d (one segment, the directory if it doubled and a log chunk if one began) plus at most %d", name, i, got, want, slack)
			}
			for p := range had {
				if !tab.segments()[p] {
					t.Fatalf("%s, insert %d: a split replaced a segment", name, i)
				}
			}
			if err := tab.check(ref); err != nil {
				t.Fatalf("%s, insert %d: after a split: %v", name, i, err)
			}
		}
		if splits < 3 || doublings < 2 {
			t.Fatalf("%s: %d splits and %d doublings; the test should reach more", name, splits, doublings)
		}

		// The same inserts again, measured as a whole.
		tab = newTestTable(kind, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, k := range keys {
			tab.add(k)
		}
		runtime.ReadMemStats(&after)
		_, segs := tab.dir()
		if got, want := after.TotalAlloc-before.TotalAlloc, uint64(segs)*uint64(segBytes)+dirBytes+tab.logBytes(); got > want+slack {
			t.Errorf("%s: %d inserts allocated %d B, more than the %d segments, the directories and the log's chunks (%d B)", name, n, got, segs, want)
		}
		if err := tab.check(ref); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestCraftedLinesSpread: stores to lines whose hashes, unseeded, share
// their top 16 bits would have to split one segment after another, doubling
// the directory each time, until depth 16 told them apart. The replayer's
// hash seed spreads them, so 4,000 of them fill two segments or so.
func TestCraftedLinesSpread(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	var zero testLines
	s := NewStream(sites.NewTable(), DefaultConfig())
	for range 4000 {
		h := 0xABCD<<48 | rng.Uint64()&segMask
		line := zero.craft(h, rng)
		for line >= 1<<58 {
			line = zero.craft(h, rng)
		}
		if err := s.Feed(trace.Event{Kind: trace.KStore, TID: 1, Addr: line << 6, Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.rp.lines.len(); n != 4000 {
		t.Fatalf("%d lines in the table, want 4000", n)
	}
	if g := s.rp.lines.global; g > 3 {
		t.Fatalf("4,000 lines took the directory to depth %d", g)
	}
}

// TestCraftedRecordsSpread: loads crafted so that their records' hashes,
// unseeded, share their top 16 bits would split one index segment after
// another, doubling the directory each time, until depth 16 told their
// fingerprints apart. The replayer's hash seed spreads them.
func TestCraftedRecordsSpread(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	cfg := DefaultConfig()
	cfg.IRH = false
	s := NewStream(sites.NewTable(), cfg)
	first := trace.Event{Kind: trace.KLoad, TID: 1, Size: 8}
	if err := s.Feed(first); err != nil {
		t.Fatal(err)
	}
	ts := s.rp.threads[1]
	for range 4000 {
		h := craftHash(0xABCD<<48|rng.Uint64()&segMask, rng)
		addr := unhash(unhash(h, uint64(uint32(ts.vcID)))^uint64(uint32(ts.lsID)), 8<<32|1)
		if want := (&LoadData{TID: 1, Addr: addr, Size: 8, LS: ts.lsID, VC: ts.vcID}).hash(0); want>>48 != 0xABCD {
			t.Fatalf("crafted a load of hash %#x", want)
		}
		if err := s.Feed(trace.Event{Kind: trace.KLoad, TID: 1, Addr: addr, Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.rp.loads.log.Len(); n != 4001 {
		t.Fatalf("%d load records, want 4001", n)
	}
	if g := s.rp.loads.global; g > 3 {
		t.Fatalf("4,000 load records took the index directory to depth %d", g)
	}
}

// TestLineTabMatchesMap drives a lineTab and a Go map through the same
// random inserts, lookups and deletes (driveTable). One key in eight has a
// home slot at the ends of a segment, so deletes must shift probe runs back
// across the wrap, and enough keys are live at once to split segments and
// double the directory.
func TestLineTabMatchesMap(t *testing.T) {
	tab := newTestTable(0, 0)
	if err := driveTable(tab, 2, rand.New(rand.NewPCG(1, 1)), 24_000, 5); err != nil {
		t.Fatal(err)
	}
	if g, n := tab.dir(); g < 2 || n < 4 {
		t.Fatalf("%d segments at global depth %d; the test never split enough", n, g)
	}
}
