package pmrt

import (
	"fmt"

	"hawkset/internal/trace"
)

// Mutex is an instrumented mutual-exclusion lock, the analogue of a pthread
// mutex under HawkSet's built-in pthread support (§4). Lock and Unlock emit
// the acquire/release events the lockset analysis consumes.
type Mutex struct {
	r         *Runtime
	id        uint64
	name, why string // the diagnostic name and the park reason built from it
	owner     *Ctx
	waiters   []*Ctx
}

// NewMutex creates a mutex. The name is diagnostic only.
func (r *Runtime) NewMutex(name string) *Mutex {
	r.nextLock++
	return &Mutex{r: r, id: r.nextLock, name: name, why: "mutex " + name}
}

// ID returns the lock identity used in trace events.
func (m *Mutex) ID() uint64 { return m.id }

// Lock acquires the mutex, blocking the simulated thread if it is held.
func (c *Ctx) Lock(m *Mutex) {
	site := c.here()
	c.pre(trace.KLockAcq, 0, 0)
	for m.owner != nil {
		if m.owner.th == c.th {
			panic(fmt.Sprintf("pmrt: T%d self-deadlock on mutex %q", c.TID(), m.name))
		}
		m.waiters = append(m.waiters, c)
		c.th.Park(m.why)
	}
	m.owner = c
	c.emit(trace.Event{Kind: trace.KLockAcq, TID: c.TID(), Lock: m.id, Site: site})
}

// TryLock attempts to acquire the mutex without blocking; it reports whether
// it succeeded. Only successful acquisitions appear in the trace, matching
// the paper's handling of pthread_mutex_trylock-style tentative acquires.
func (c *Ctx) TryLock(m *Mutex) bool {
	site := c.here()
	c.pre(trace.KLockAcq, 0, 0)
	if m.owner != nil {
		return false
	}
	m.owner = c
	c.emit(trace.Event{Kind: trace.KLockAcq, TID: c.TID(), Lock: m.id, Site: site})
	return true
}

// Unlock releases the mutex and wakes one waiter.
func (c *Ctx) Unlock(m *Mutex) {
	site := c.here()
	if m.owner == nil || m.owner.th != c.th {
		panic(fmt.Sprintf("pmrt: T%d unlock of mutex %q it does not hold", c.TID(), m.name))
	}
	m.owner = nil
	c.emit(trace.Event{Kind: trace.KLockRel, TID: c.TID(), Lock: m.id, Site: site})
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[:copy(m.waiters, m.waiters[1:])] // keeps the capacity
		c.th.Unpark(w.th)
	}
}

// RWMutex is an instrumented readers-writer lock. Read and write holds emit
// the same lock identity: a reader's lockset and a writer's lockset then
// intersect on that identity, so reader/writer pairs are treated as
// protected — the correct lockset treatment for store/load pairs.
type RWMutex struct {
	r                *Runtime
	id               uint64
	name, whyR, whyW string // the diagnostic name and the park reasons built from it
	readers          int
	writer           *Ctx
	waiters          []*Ctx
}

// NewRWMutex creates a readers-writer lock.
func (r *Runtime) NewRWMutex(name string) *RWMutex {
	r.nextLock++
	return &RWMutex{r: r, id: r.nextLock, name: name, whyR: "rwmutex-r " + name, whyW: "rwmutex-w " + name}
}

// ID returns the lock identity used in trace events.
func (m *RWMutex) ID() uint64 { return m.id }

// RLock acquires the lock in shared mode.
func (c *Ctx) RLock(m *RWMutex) {
	site := c.here()
	c.pre(trace.KLockAcq, 0, 0)
	for m.writer != nil {
		m.waiters = append(m.waiters, c)
		c.th.Park(m.whyR)
	}
	m.readers++
	c.emit(trace.Event{Kind: trace.KLockAcq, TID: c.TID(), Lock: m.id, Site: site})
}

// RUnlock releases a shared hold.
func (c *Ctx) RUnlock(m *RWMutex) {
	site := c.here()
	if m.readers <= 0 {
		panic(fmt.Sprintf("pmrt: T%d RUnlock of rwmutex %q with no readers", c.TID(), m.name))
	}
	m.readers--
	c.emit(trace.Event{Kind: trace.KLockRel, TID: c.TID(), Lock: m.id, Site: site})
	if m.readers == 0 {
		m.wakeAll(c)
	}
}

// WLock acquires the lock exclusively.
func (c *Ctx) WLock(m *RWMutex) {
	site := c.here()
	c.pre(trace.KLockAcq, 0, 0)
	for m.writer != nil || m.readers > 0 {
		if m.writer != nil && m.writer.th == c.th {
			panic(fmt.Sprintf("pmrt: T%d self-deadlock on rwmutex %q", c.TID(), m.name))
		}
		m.waiters = append(m.waiters, c)
		c.th.Park(m.whyW)
	}
	m.writer = c
	c.emit(trace.Event{Kind: trace.KLockAcq, TID: c.TID(), Lock: m.id, Site: site})
}

// WUnlock releases an exclusive hold.
func (c *Ctx) WUnlock(m *RWMutex) {
	site := c.here()
	if m.writer == nil || m.writer.th != c.th {
		panic(fmt.Sprintf("pmrt: T%d WUnlock of rwmutex %q it does not hold", c.TID(), m.name))
	}
	m.writer = nil
	c.emit(trace.Event{Kind: trace.KLockRel, TID: c.TID(), Lock: m.id, Site: site})
	m.wakeAll(c)
}

// wakeAll makes every waiter runnable and empties the queue for reuse.
func (m *RWMutex) wakeAll(c *Ctx) {
	for _, w := range m.waiters {
		c.th.Unpark(w.th) // marks w runnable; no thread runs until c yields
	}
	m.waiters = m.waiters[:0]
}

// SpinLock is a CAS-based lock whose lock word lives in PM, the pattern
// P-CLHT and APEX implement (§5.5): the application spins on a
// compare-and-swap of a PM word. The CAS's PM load/store appear in the trace
// as ordinary lock-free accesses, and — mirroring the wrapper functions plus
// configuration file the paper's authors wrote for these applications — the
// successful acquire and the release are additionally reported as lock
// events so the lockset analysis sees the acquire-release semantics.
type SpinLock struct {
	r         *Runtime
	id        uint64
	addr      uint64 // PM address of the lock word
	name, why string // the diagnostic name and the park reason built from it
	// waiters parks spinners so the cooperative schedule stays bounded; a
	// real spin loop would burn schedule steps without changing semantics.
	holder  *Ctx
	waiters []*Ctx
}

// NewSpinLock creates a CAS lock whose word is at a fresh PM address
// allocated from the heap.
func (r *Runtime) NewSpinLock(c *Ctx, name string) *SpinLock {
	r.nextLock++
	return &SpinLock{r: r, id: r.nextLock, addr: c.Alloc(8), name: name, why: "spinlock " + name}
}

// Addr returns the PM address of the lock word.
func (l *SpinLock) Addr() uint64 { return l.addr }

// ID returns the lock identity used in trace events.
func (l *SpinLock) ID() uint64 { return l.id }

// SpinLock acquires l via CAS on its PM word.
func (c *Ctx) SpinLock(l *SpinLock) {
	site := c.here()
	for {
		if c.CAS8(l.addr, 0, uint64(c.TID())+1) {
			break
		}
		l.waiters = append(l.waiters, c)
		c.th.Park(l.why)
	}
	l.holder = c
	c.emit(trace.Event{Kind: trace.KLockAcq, TID: c.TID(), Lock: l.id, Site: site})
}

// SpinUnlock releases l by storing zero to its PM word.
func (c *Ctx) SpinUnlock(l *SpinLock) {
	site := c.here()
	if l.holder == nil || l.holder.th != c.th {
		panic(fmt.Sprintf("pmrt: T%d unlock of spinlock %q it does not hold", c.TID(), l.name))
	}
	l.holder = nil
	c.emit(trace.Event{Kind: trace.KLockRel, TID: c.TID(), Lock: l.id, Site: site})
	c.Store8(l.addr, 0)
	for _, w := range l.waiters {
		c.th.Unpark(w.th)
	}
	l.waiters = l.waiters[:0]
}
