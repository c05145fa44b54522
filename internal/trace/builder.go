package trace

// Builder constructs traces programmatically with human-readable site
// labels. It is used by unit tests and the paper's toy examples (Figures 1c,
// 2 and 3), where stable site names beat Go file:line locations.
type Builder struct {
	T *Trace
}

// NewBuilder returns a builder over a fresh trace.
func NewBuilder() *Builder { return &Builder{T: New()} }

// Store appends a store event.
func (b *Builder) Store(tid int32, addr uint64, size uint32, label string) *Builder {
	b.T.Append(Event{Kind: KStore, TID: tid, Addr: addr, Size: size, Site: b.T.Sites.Named(label)})
	return b
}

// Load appends a load event.
func (b *Builder) Load(tid int32, addr uint64, size uint32, label string) *Builder {
	b.T.Append(Event{Kind: KLoad, TID: tid, Addr: addr, Size: size, Site: b.T.Sites.Named(label)})
	return b
}

// NTStore appends a non-temporal store event.
func (b *Builder) NTStore(tid int32, addr uint64, size uint32, label string) *Builder {
	b.T.Append(Event{Kind: KNTStore, TID: tid, Addr: addr, Size: size, Site: b.T.Sites.Named(label)})
	return b
}

// Flush appends a cache-line flush event for the line containing addr.
func (b *Builder) Flush(tid int32, addr uint64, label string) *Builder {
	b.T.Append(Event{Kind: KFlush, TID: tid, Addr: addr / 64 * 64, Site: b.T.Sites.Named(label)})
	return b
}

// Fence appends a fence event.
func (b *Builder) Fence(tid int32, label string) *Builder {
	b.T.Append(Event{Kind: KFence, TID: tid, Site: b.T.Sites.Named(label)})
	return b
}

// Persist appends flush+fence for [addr, addr+size): the pmem_persist idiom.
func (b *Builder) Persist(tid int32, addr uint64, size uint32, label string) *Builder {
	first := addr / 64
	last := (addr + uint64(size) - 1) / 64
	for l := first; l <= last; l++ {
		b.Flush(tid, l*64, label)
	}
	return b.Fence(tid, label)
}

// Lock appends a lock-acquire event.
func (b *Builder) Lock(tid int32, lock uint64, label string) *Builder {
	b.T.Append(Event{Kind: KLockAcq, TID: tid, Lock: lock, Site: b.T.Sites.Named(label)})
	return b
}

// Unlock appends a lock-release event.
func (b *Builder) Unlock(tid int32, lock uint64, label string) *Builder {
	b.T.Append(Event{Kind: KLockRel, TID: tid, Lock: lock, Site: b.T.Sites.Named(label)})
	return b
}

// Alloc appends a PM allocation event covering [addr, addr+size).
func (b *Builder) Alloc(tid int32, addr uint64, size uint32, label string) *Builder {
	b.T.Append(Event{Kind: KAlloc, TID: tid, Addr: addr, Size: size, Site: b.T.Sites.Named(label)})
	return b
}

// Create appends a thread-create event.
func (b *Builder) Create(parent, child int32, label string) *Builder {
	b.T.Append(Event{Kind: KThreadCreate, TID: parent, Kid: child, Site: b.T.Sites.Named(label)})
	return b
}

// Join appends a thread-join event.
func (b *Builder) Join(waiter, child int32, label string) *Builder {
	b.T.Append(Event{Kind: KThreadJoin, TID: waiter, Kid: child, Site: b.T.Sites.Named(label)})
	return b
}
