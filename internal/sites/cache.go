package sites

// cacheBits sizes a Cache: 1<<cacheBits direct-mapped slots. An app
// captures at a few hundred keys and pairs at most.
const cacheBits = 10

// Cache is a single-goroutine front for a Table. It holds the keys and
// pairs the table trusts in a direct-mapped array, so a repeat capture
// takes no lock and does no map lookup. A miss, a first sighting or a slot
// lost to a colliding key, falls back to the table under its lock, which
// unwinds only for a key or pair it has not seen or has pinned. A Cache
// must not be used by two goroutines at once (pmrt's cooperative scheduler
// runs one simulated thread at a time); the table behind it may be shared.
// The zero value is not usable; use NewCache.
type Cache struct {
	t     *Table
	hits  uint64
	mask  uintptr // slot-index mask; a test narrows it to force collisions
	slots [1 << cacheBits]slot
}

// slot is one trusted key, or one trusted pair when next is nonzero. It
// sits at index(key^next), so a key's slot is index(key).
type slot struct {
	key, next uintptr
	id        ID
}

// NewCache creates an empty cache in front of t.
func NewCache(t *Table) *Cache {
	return &Cache{t: t, mask: 1<<cacheBits - 1}
}

// index maps a slot's key^next to its position (Fibonacci hashing: the
// product's top bits mix every bit of h).
func (c *Cache) index(h uintptr) uintptr {
	return uintptr(uint64(h)*0x9E3779B97F4A7C15>>(64-cacheBits)) & c.mask
}

// Here captures the caller's call site, skipping skip additional stack
// frames (skip 0 means the immediate caller of Here). The site is the
// logical frame runtime.Callers reports, so inlined frames resolve to their
// own source location and wrapper frames are skipped.
//
// The common case never unwinds: the return address skip frame-pointer
// links up is the fast key. A trusted key is looked up first, then the
// pair of it and the next return address up, which answers for a key a
// wrapper frame pinned. A miss goes to the table, which unwinds only for a
// key or pair it has not validated yet or has pinned. The fast key is exact
// when each of the skip frames between Here's caller and the captured frame
// is a direct call of a function that is never inlined; pmrt keeps
// (*Ctx).here and the Ctx methods that call it out of line for this reason
// (DESIGN.md §14).
//
//go:noinline
func (c *Cache) Here(skip int) ID {
	key, next := retAddrs(skip)
	if key != 0 {
		if s := &c.slots[c.index(key)]; s.key == key && s.next == 0 {
			c.hits++
			return s.id
		}
		if s := &c.slots[c.index(key^next)]; s.key == key && s.next == next {
			c.hits++
			return s.id
		}
	}
	id, slotNext, ok := c.t.capture(skip+1, key, next)
	if ok {
		c.slots[c.index(key^slotNext)] = slot{key: key, next: slotNext, id: id}
	}
	return id
}

// Counts returns the table's counts with this cache's hits added to Fast.
func (c *Cache) Counts() Counts {
	n := c.t.Counts()
	n.Fast += c.hits
	return n
}
