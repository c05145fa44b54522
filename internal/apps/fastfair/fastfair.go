// Package fastfair reimplements Fast-Fair (Hwang et al., FAST'18), the
// PM-backed B+-tree of the paper's evaluation, on the instrumented runtime.
// Writers (insert/update/delete) serialize on a mutex; lookups are
// lock-free, exactly the Lock/Lock-Free mix Table 1 lists.
//
// The buggy variant carries the two Table 2 races:
//
//	#1 (known, reported by PMRace): a leaf split publishes the new sibling's
//	   separator entry in the parent without persisting it
//	   ((*Tree).publishSibling). A lock-free lookup can traverse the
//	   unpersisted pointer ((*Tree).lookupChild); after a crash the inserted
//	   values are lost while lookups' side effects survive.
//	#2 (new): the same pattern on the much rarer tree-growth branch: the new
//	   root is published by an unpersisted root-pointer store
//	   ((*Tree).growRoot) read lock-free by (*Tree).loadRoot.
//
// The Fixed variant persists both stores inside the critical section.
package fastfair

import (
	"fmt"

	"hawkset/internal/apps"
	"hawkset/internal/pmem"
	"hawkset/internal/pmrt"
	"hawkset/internal/ycsb"
)

// Node layout (PM): 16-byte header + fanout 16-byte entries.
//
//	+0  header  uint64: bit0 = leaf, bits 1.. = entry count
//	+8  next    uint64: leaf sibling pointer / internal leftmost child
//	+16 entries fanout × (key uint64, val-or-child uint64)
const (
	fanout     = 8
	offHeader  = 0
	offNext    = 8
	offEntries = 16
	entrySize  = 16
	nodeSize   = offEntries + fanout*entrySize
)

// Tree is the PM B+-tree.
type Tree struct {
	rt    *pmrt.Runtime
	mu    *pmrt.Mutex
	meta  uint64 // PM address of the root pointer
	fixed bool
}

// New creates a Fast-Fair instance. fixed repairs both seeded bugs.
func New(rt *pmrt.Runtime, fixed bool) apps.App {
	return &Tree{rt: rt, mu: rt.NewMutex("fastfair"), fixed: fixed}
}

// Name implements apps.App.
func (t *Tree) Name() string { return "Fast-Fair" }

// Setup allocates the metadata block and an empty root leaf.
func (t *Tree) Setup(c *pmrt.Ctx) {
	t.meta = c.Alloc(8)
	root := t.newNode(c, true)
	c.Store8(t.meta, root)
	c.Persist(t.meta, 8)
}

// Attach binds a tree handle to an existing persistent image (post-crash
// recovery): meta is the root-pointer address the pre-crash instance
// allocated. Fast-Fair's design goal is exactly this — no recovery pass that
// fixes inconsistencies, the persisted tree is immediately usable.
func Attach(rt *pmrt.Runtime, meta uint64, fixed bool) *Tree {
	return &Tree{rt: rt, mu: rt.NewMutex("fastfair"), meta: meta, fixed: fixed}
}

// Meta returns the PM address of the root pointer (for recovery).
func (t *Tree) Meta() uint64 { return t.meta }

// Apply implements apps.App.
func (t *Tree) Apply(c *pmrt.Ctx, op ycsb.Op) {
	switch op.Kind {
	case ycsb.OpInsert, ycsb.OpUpdate:
		// Fast-Fair treats inserts and updates as the same operation (§5).
		t.Insert(c, op.Key, op.Value)
	case ycsb.OpGet:
		t.Get(c, op.Key)
	case ycsb.OpScan:
		n := int(op.Len)
		if n == 0 {
			n = 16
		}
		t.Scan(c, op.Key, n)
	case ycsb.OpDelete:
		t.Delete(c, op.Key)
	}
}

// Scan returns up to n key/value pairs starting at the first key >= start,
// walking the leaf chain lock-free through the sibling pointers — the same
// pointers bug #1 leaves unpersisted, so scans are additional witnesses of
// the race.
func (t *Tree) Scan(c *pmrt.Ctx, start uint64, n int) [][2]uint64 {
	node := t.loadRoot(c)
	for {
		leaf, _ := header(c.Load8(node + offHeader))
		if leaf {
			break
		}
		node = t.lookupChild(c, node, start)
	}
	var out [][2]uint64
	for node != 0 && len(out) < n {
		_, count := header(c.Load8(node + offHeader))
		for i := 0; i < count && len(out) < n; i++ {
			k := c.Load8(entryKey(node, i))
			if k < start {
				continue
			}
			out = append(out, [2]uint64{k, c.Load8(entryVal(node, i))})
		}
		node = c.Load8(node + offNext) // sibling pointer: the bug-#1 window
	}
	return out
}

// newNode allocates and initializes a node. The initialization stores are
// explicitly persisted before the node is published — the pattern the
// Initialization Removal Heuristic prunes (§3.1.3).
func (t *Tree) newNode(c *pmrt.Ctx, leaf bool) uint64 {
	n := c.Alloc(nodeSize)
	hdr := uint64(0)
	if leaf {
		hdr = 1
	}
	c.Store8(n+offHeader, hdr)
	c.Store8(n+offNext, 0)
	c.Persist(n, nodeSize)
	return n
}

func header(hdr uint64) (leaf bool, count int) { return hdr&1 == 1, int(hdr >> 1) }
func packHeader(leaf bool, count int) uint64 {
	h := uint64(count) << 1
	if leaf {
		h |= 1
	}
	return h
}

func entryKey(n uint64, i int) uint64 { return n + offEntries + uint64(i)*entrySize }
func entryVal(n uint64, i int) uint64 { return entryKey(n, i) + 8 }

// loadRoot reads the root pointer lock-free (the load side of bug #2).
func (t *Tree) loadRoot(c *pmrt.Ctx) uint64 {
	return c.Load8(t.meta)
}

// lookupChild descends one internal level lock-free (the load side of
// bug #1: it dereferences child pointers that may be unpersisted).
func (t *Tree) lookupChild(c *pmrt.Ctx, n uint64, key uint64) uint64 {
	_, count := header(c.Load8(n + offHeader))
	child := c.Load8(n + offNext) // leftmost child
	for i := 0; i < count; i++ {
		k := c.Load8(entryKey(n, i))
		if key < k {
			break
		}
		child = c.Load8(entryVal(n, i))
	}
	return child
}

// searchLeaf scans a leaf lock-free.
func (t *Tree) searchLeaf(c *pmrt.Ctx, n uint64, key uint64) (uint64, bool) {
	_, count := header(c.Load8(n + offHeader))
	for i := 0; i < count; i++ {
		k := c.Load8(entryKey(n, i))
		if k == key {
			return c.Load8(entryVal(n, i)), true
		}
		if k > key {
			break
		}
	}
	return 0, false
}

// Get looks key up without taking any lock (Fast-Fair's lock-free search).
func (t *Tree) Get(c *pmrt.Ctx, key uint64) (uint64, bool) {
	n := t.loadRoot(c)
	for {
		leaf, _ := header(c.Load8(n + offHeader))
		if leaf {
			return t.searchLeaf(c, n, key)
		}
		n = t.lookupChild(c, n, key)
	}
}

// path element recorded while descending for a write.
type pathEnt struct {
	node uint64
}

// Insert adds or updates key under the tree mutex.
func (t *Tree) Insert(c *pmrt.Ctx, key, val uint64) {
	c.Lock(t.mu)
	defer c.Unlock(t.mu)

	path := make([]pathEnt, 0, 8)
	n := c.Load8(t.meta)
	for {
		leaf, count := header(c.Load8(n + offHeader))
		if leaf {
			t.insertLeaf(c, n, path, key, val, count)
			return
		}
		path = append(path, pathEnt{node: n})
		child := c.Load8(n + offNext)
		for i := 0; i < count; i++ {
			k := c.Load8(entryKey(n, i))
			if key < k {
				break
			}
			child = c.Load8(entryVal(n, i))
		}
		n = child
	}
}

// insertLeaf writes key/val into leaf n, splitting if full. Entry shifting
// mirrors Fast-Fair's in-place sorted arrays with per-step persistence: the
// design that makes lock-free readers crash-consistent (benign races).
func (t *Tree) insertLeaf(c *pmrt.Ctx, n uint64, path []pathEnt, key, val uint64, count int) {
	// In-place update of an existing key.
	for i := 0; i < count; i++ {
		if c.Load8(entryKey(n, i)) == key {
			c.Store8(entryVal(n, i), val)
			c.Persist(entryVal(n, i), 8)
			return
		}
	}
	if count == fanout {
		n, count = t.splitLeaf(c, n, path, key)
	}
	pos := count
	for i := 0; i < count; i++ {
		if key < c.Load8(entryKey(n, i)) {
			pos = i
			break
		}
	}
	// Shift right, last to first, persisting each entry before exposing the
	// next (Fast-Fair's ordered store discipline).
	for i := count; i > pos; i-- {
		k := c.Load8(entryKey(n, i-1))
		v := c.Load8(entryVal(n, i-1))
		c.Store8(entryKey(n, i), k)
		c.Store8(entryVal(n, i), v)
		c.Persist(entryKey(n, i), entrySize)
	}
	c.Store8(entryKey(n, pos), key)
	c.Store8(entryVal(n, pos), val)
	c.Persist(entryKey(n, pos), entrySize)
	c.Store8(n+offHeader, packHeader(true, count+1))
	c.Persist(n+offHeader, 8)
}

// splitLeaf moves the upper half of n into a fresh sibling and inserts the
// separator into the parent chain. It returns the node that should receive
// key and that node's entry count.
func (t *Tree) splitLeaf(c *pmrt.Ctx, n uint64, path []pathEnt, key uint64) (uint64, int) {
	sib := t.newNode(c, true)
	half := fanout / 2
	// Copy upper half into the (still private) sibling and persist it.
	for i := half; i < fanout; i++ {
		c.Store8(entryKey(sib, i-half), c.Load8(entryKey(n, i)))
		c.Store8(entryVal(sib, i-half), c.Load8(entryVal(n, i)))
	}
	c.Store8(sib+offHeader, packHeader(true, fanout-half))
	c.Store8(sib+offNext, c.Load8(n+offNext))
	c.Persist(sib, nodeSize)
	// Link and shrink the original leaf.
	c.Store8(n+offNext, sib)
	c.Store8(n+offHeader, packHeader(true, half))
	c.Persist(n+offHeader, 16)
	sep := c.Load8(entryKey(sib, 0))
	t.insertIntoParent(c, path, n, sep, sib)
	if key < sep {
		return n, half
	}
	return sib, fanout - half
}

// insertIntoParent inserts (sep, child) into the lowest path node, splitting
// internal nodes as needed.
func (t *Tree) insertIntoParent(c *pmrt.Ctx, path []pathEnt, left, sep, child uint64) {
	if len(path) == 0 {
		t.growRoot(c, left, sep, child)
		return
	}
	p := path[len(path)-1].node
	_, count := header(c.Load8(p + offHeader))
	if count == fanout {
		p, count = t.splitInternal(c, p, path[:len(path)-1], sep)
	}
	pos := count
	for i := 0; i < count; i++ {
		if sep < c.Load8(entryKey(p, i)) {
			pos = i
			break
		}
	}
	for i := count; i > pos; i-- {
		k := c.Load8(entryKey(p, i-1))
		v := c.Load8(entryVal(p, i-1))
		c.Store8(entryKey(p, i), k)
		c.Store8(entryVal(p, i), v)
		c.Persist(entryKey(p, i), entrySize)
	}
	t.publishSibling(c, p, pos, sep, child)
	c.Store8(p+offHeader, packHeader(false, count+1))
	c.Persist(p+offHeader, 8)
}

// publishSibling stores the separator entry that makes the new sibling
// reachable. BUG #1 (Table 2 #1, known): the buggy variant omits the
// persistency — the pointer is visible to lock-free lookups while only in
// the cache, so a crash loses the entire sibling while reads may already
// have acted on it.
func (t *Tree) publishSibling(c *pmrt.Ctx, p uint64, pos int, sep, child uint64) {
	c.Store8(entryKey(p, pos), sep)
	c.Store8(entryVal(p, pos), child)
	if t.fixed {
		c.Persist(entryKey(p, pos), entrySize)
	}
}

// splitInternal splits a full internal node, returning the node that should
// receive sep.
func (t *Tree) splitInternal(c *pmrt.Ctx, p uint64, path []pathEnt, sep uint64) (uint64, int) {
	sib := t.newNode(c, false)
	half := fanout / 2
	// The middle key moves up; entries above it move to the sibling.
	midKey := c.Load8(entryKey(p, half))
	c.Store8(sib+offNext, c.Load8(entryVal(p, half)))
	for i := half + 1; i < fanout; i++ {
		c.Store8(entryKey(sib, i-half-1), c.Load8(entryKey(p, i)))
		c.Store8(entryVal(sib, i-half-1), c.Load8(entryVal(p, i)))
	}
	c.Store8(sib+offHeader, packHeader(false, fanout-half-1))
	c.Persist(sib, nodeSize)
	c.Store8(p+offHeader, packHeader(false, half))
	c.Persist(p+offHeader, 8)
	t.insertIntoParent(c, path, p, midKey, sib)
	if sep < midKey {
		return p, half
	}
	return sib, fanout - half - 1
}

// growRoot handles the rare tree-growth branch: a fresh root pointing at the
// two halves. BUG #2 (Table 2 #2, new): the buggy variant publishes the new
// root with an unpersisted root-pointer store — same pattern as #1, but on a
// branch only taken when the tree's height grows, which is why
// observation-based tools miss it (§5.2).
func (t *Tree) growRoot(c *pmrt.Ctx, left, sep, right uint64) {
	root := t.newNode(c, false)
	c.Store8(root+offNext, left)
	c.Store8(entryKey(root, 0), sep)
	c.Store8(entryVal(root, 0), right)
	c.Store8(root+offHeader, packHeader(false, 1))
	c.Persist(root, nodeSize)
	c.Store8(t.meta, root)
	if t.fixed {
		c.Persist(t.meta, 8)
	}
}

// Delete removes key from its leaf under the tree mutex. Underflowed leaves
// are left in place (Fast-Fair tolerates transient underflow; merging is
// orthogonal to the persistency patterns under study).
func (t *Tree) Delete(c *pmrt.Ctx, key uint64) {
	c.Lock(t.mu)
	defer c.Unlock(t.mu)

	n := c.Load8(t.meta)
	for {
		leaf, count := header(c.Load8(n + offHeader))
		if leaf {
			for i := 0; i < count; i++ {
				if c.Load8(entryKey(n, i)) == key {
					for j := i; j < count-1; j++ {
						k := c.Load8(entryKey(n, j+1))
						v := c.Load8(entryVal(n, j+1))
						c.Store8(entryKey(n, j), k)
						c.Store8(entryVal(n, j), v)
						c.Persist(entryKey(n, j), entrySize)
					}
					c.Store8(n+offHeader, packHeader(true, count-1))
					c.Persist(n+offHeader, 8)
					return
				}
			}
			return
		}
		child := c.Load8(n + offNext)
		for i := 0; i < count; i++ {
			k := c.Load8(entryKey(n, i))
			if key < k {
				break
			}
			child = c.Load8(entryVal(n, i))
		}
		n = child
	}
}

// ValidateCrash walks the persistent image from the persisted root and
// reports corruption of two kinds: structural tears (an internal node whose
// persisted count admits a nil or duplicated child pointer — bug #1's torn
// split) and silent data loss (keys reachable in the pre-crash volatile
// tree that the persistent image cannot reach — bug #2's unpersisted root
// swap orphans entire subtrees).
func (t *Tree) ValidateCrash(p *pmem.Pool) []string {
	var out []string

	// Silent data loss: compare reachable leaf keys in both views.
	volatileKeys := t.countKeys(p.Load8, p.Load8(t.meta))
	persistKeys := t.countKeys(p.ReadPersistent8, p.ReadPersistent8(t.meta))
	if persistKeys < volatileKeys {
		out = append(out, fmt.Sprintf(
			"silent data loss: %d of %d keys unreachable in the crash image (bugs #1/#2)",
			volatileKeys-persistKeys, volatileKeys))
	}

	root := p.ReadPersistent8(t.meta)
	if root == 0 {
		return append(out, "persisted root pointer is nil")
	}
	var walk func(n uint64, depth int)
	walk = func(n uint64, depth int) {
		if depth > 16 {
			out = append(out, fmt.Sprintf("node %#x: depth bound exceeded (cycle?)", n))
			return
		}
		leaf, count := header(p.ReadPersistent8(n + offHeader))
		if count > fanout {
			out = append(out, fmt.Sprintf("node %#x: persisted count %d exceeds fanout", n, count))
			return
		}
		if leaf {
			return
		}
		child := p.ReadPersistent8(n + offNext)
		seen := map[uint64]bool{}
		if child == 0 {
			out = append(out, fmt.Sprintf("internal node %#x: nil leftmost child", n))
		} else {
			seen[child] = true
			walk(child, depth+1)
		}
		for i := 0; i < count; i++ {
			c := p.ReadPersistent8(entryVal(n, i))
			if c == 0 {
				out = append(out, fmt.Sprintf(
					"internal node %#x entry %d: count persisted but child pointer is nil (torn split, bug #1)", n, i))
				continue
			}
			if seen[c] {
				// A slot whose publish was torn still holds the persisted
				// image of the entry that was shifted out of it.
				out = append(out, fmt.Sprintf(
					"internal node %#x entry %d: duplicate child pointer %#x (torn split, bug #1)", n, i, c))
				continue
			}
			seen[c] = true
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return out
}

// ValidateCrashPoint implements apps.CrashPointValidator: the invariants of
// the persistent image that hold at EVERY device-serialization point of the
// fixed variant, once Setup has completed. The duplicate-child and silent
// data-loss checks stay quiescent-only in ValidateCrash: an in-flight entry
// shift legitimately duplicates a persisted slot, and a correctly-persisting
// insert has a store→persist gap where the volatile view briefly leads.
func (t *Tree) ValidateCrashPoint(p *pmem.Pool) []string {
	var out []string
	root := p.ReadPersistent8(t.meta)
	if root == 0 {
		return []string{"persisted root pointer is nil"}
	}
	var walk func(n uint64, depth int)
	walk = func(n uint64, depth int) {
		if depth > 16 {
			out = append(out, fmt.Sprintf("node %#x: depth bound exceeded (cycle?)", n))
			return
		}
		leaf, count := header(p.ReadPersistent8(n + offHeader))
		if count > fanout {
			out = append(out, fmt.Sprintf("node %#x: persisted count %d exceeds fanout", n, count))
			return
		}
		if leaf {
			return
		}
		child := p.ReadPersistent8(n + offNext)
		if child == 0 {
			out = append(out, fmt.Sprintf("internal node %#x: nil leftmost child", n))
		} else {
			walk(child, depth+1)
		}
		for i := 0; i < count; i++ {
			c := p.ReadPersistent8(entryVal(n, i))
			if c == 0 {
				out = append(out, fmt.Sprintf(
					"internal node %#x entry %d: count persisted but child pointer is nil (torn split, bug #1)", n, i))
				continue
			}
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return out
}

// RecoveryWalk traverses the attached tree through instrumented loads — the
// hardened recovery pass. Instead of blindly trusting persisted pointers
// (and looping forever on a nil child that aliases the reserved zero page,
// or faulting on garbage), it bounds the depth and rejects nil children,
// returning an error describing the first inconsistency it meets. Truly
// corrupt pointers that land outside the device still fault (panic), which
// the crash-injection harness converts into an inconsistent verdict.
func (t *Tree) RecoveryWalk(c *pmrt.Ctx) error {
	root := c.Load8(t.meta)
	if root == 0 {
		return fmt.Errorf("recovery: nil root pointer")
	}
	return t.recWalk(c, root, 0)
}

func (t *Tree) recWalk(c *pmrt.Ctx, n uint64, depth int) error {
	if depth > 16 {
		return fmt.Errorf("recovery: depth bound exceeded at node %#x (cycle?)", n)
	}
	leaf, count := header(c.Load8(n + offHeader))
	if count > fanout {
		return fmt.Errorf("recovery: node %#x count %d exceeds fanout", n, count)
	}
	if leaf {
		return nil
	}
	child := c.Load8(n + offNext)
	if child == 0 {
		return fmt.Errorf("recovery: internal node %#x has nil leftmost child", n)
	}
	if err := t.recWalk(c, child, depth+1); err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		ch := c.Load8(entryVal(n, i))
		if ch == 0 {
			return fmt.Errorf("recovery: torn split — node %#x entry %d has nil child", n, i)
		}
		if err := t.recWalk(c, ch, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// countKeys walks the tree through the given memory view, counting reachable
// leaf entries. Nil children (torn splits) are skipped — they are reported
// separately.
func (t *Tree) countKeys(read func(uint64) uint64, root uint64) int {
	if root == 0 {
		return 0
	}
	n := 0
	var walk func(node uint64, depth int)
	walk = func(node uint64, depth int) {
		if node == 0 || depth > 16 {
			return
		}
		leaf, count := header(read(node + offHeader))
		if count > fanout {
			return
		}
		if leaf {
			n += count
			return
		}
		walk(read(node+offNext), depth+1)
		for i := 0; i < count; i++ {
			walk(read(entryVal(node, i)), depth+1)
		}
	}
	walk(root, 0)
	return n
}

func init() {
	apps.Register(&apps.Entry{
		Name:    "Fast-Fair",
		Factory: New,
		Bugs: []apps.BugSpec{
			{
				ID: 1, New: false,
				StoreFunc: "fastfair.(*Tree).publishSibling", LoadFunc: "fastfair.(*Tree).lookupChild",
				Description: "load unpersisted pointer",
			},
			{
				ID: 2, New: true,
				StoreFunc: "fastfair.(*Tree).growRoot", LoadFunc: "fastfair.(*Tree).loadRoot",
				Description: "load unpersisted pointer",
			},
		},
		// Lock-free readers against properly-persisted writer stores: genuine
		// races tolerated by Fast-Fair's ordered-store design. Node
		// initialization (newNode) is deliberately absent: reports against
		// init stores are false positives the IRH exists to prune.
		Benign: apps.Pairs(
			[]string{
				"fastfair.(*Tree).insertLeaf", "fastfair.(*Tree).splitLeaf",
				"fastfair.(*Tree).splitInternal", "fastfair.(*Tree).insertIntoParent",
				"fastfair.(*Tree).publishSibling", "fastfair.(*Tree).growRoot",
				"fastfair.(*Tree).Delete",
			},
			[]string{
				"fastfair.(*Tree).lookupChild", "fastfair.(*Tree).searchLeaf",
				"fastfair.(*Tree).loadRoot", "fastfair.(*Tree).Get",
			},
		),
		Spec: ycsb.DefaultSpec,
		Recover: func(c *pmrt.Ctx, prev apps.App, fixed bool) error {
			return Attach(c.Runtime(), prev.(*Tree).Meta(), fixed).RecoveryWalk(c)
		},
	})
}
