// Package pmrt is the instrumented PM runtime: the reproduction's substitute
// for Intel PIN binary instrumentation. PM applications (internal/apps/*)
// are written against this API; every PM access, synchronization primitive
// and thread operation goes through it, is executed against the simulated PM
// device (internal/pmem) under the deterministic cooperative scheduler
// (internal/sched), and is appended to an execution trace (internal/trace)
// together with the Go call site of the application code that issued it.
//
// HawkSet's analysis (internal/hawkset) and the baselines consume the trace;
// they never see the application, exactly as the original tool never sees
// application source — the trace schema is the tool/application interface.
package pmrt

import (
	"encoding/binary"

	"hawkset/internal/obs"
	"hawkset/internal/pmem"
	"hawkset/internal/sched"
	"hawkset/internal/sites"
	"hawkset/internal/trace"
)

// Config configures a Runtime.
type Config struct {
	// Seed drives the deterministic scheduler.
	Seed int64
	// PoolSize is the simulated PM device capacity in bytes (0 = 32 MiB).
	PoolSize uint64
	// MaxSteps bounds scheduler decisions (0 = unbounded).
	MaxSteps uint64
	// EADR makes every visible store persistent (ablation).
	EADR bool
	// TrackWriters enables per-byte dirty-read attribution (the PMRace
	// baseline observer needs it; costs 8 bytes per pool byte).
	TrackWriters bool
	// NoTrace disables trace recording (pure-execution runs, e.g. the
	// PMRace baseline's repeated executions that only use the observer).
	NoTrace bool
	// EvictAfter enables hardware-realistic background cache eviction (see
	// pmem.Options.EvictAfter). Used only by the observation baseline.
	EvictAfter int
	// InstrumentAllocs records PM allocations in the trace. This is the §7
	// extension HawkSet deliberately omits (PM allocation interfaces are not
	// standardized, so instrumenting them costs application-agnosticism);
	// the analysis can use the events to reset the Initialization Removal
	// Heuristic's publication state on reuse (hawkset.Config.AllocAware).
	InstrumentAllocs bool
	// RecordOps journals every device-mutating operation (stores with their
	// data, flushes, fences) into Runtime.Ops, correlated to trace-event
	// indices. The crash-injection harness (internal/crashinject) replays
	// the journal to materialize the crash image at any point of the
	// execution without re-running the application.
	RecordOps bool
	// ElideSites suppresses the device effect, trace event and journal entry
	// of flush/fence operations issued from the listed call sites — the
	// mechanism pmopt's -apply mode uses to execute a redundancy elimination
	// without editing application source. Keys are module-relative
	// "file.go:line" strings (sites.Frame.Key); a Persist call site
	// elides its per-line flushes and its fence together. Elision is
	// yield-preserving: every would-be operation still performs its
	// scheduling yield (and BeforeOp callback), so the interleaving — and
	// with it every non-elided trace event — is identical to the un-elided
	// run. Only the elided flush/fence events disappear.
	ElideSites map[string]bool
	// Metrics, when non-nil, receives side-band event/journal counters from
	// the runtime and device counters from the pool. Execution, traces and
	// journals are unaffected: metrics never feed back.
	Metrics *obs.Registry
}

// Runtime glues the scheduler, the PM device and the trace recorder.
type Runtime struct {
	cfg   Config
	Sched *sched.Scheduler
	Pool  *pmem.Pool
	Heap  *pmem.Heap
	Trace *trace.Trace
	// Ops is the device-op journal recorded under Config.RecordOps, in
	// execution order (the cooperative scheduler serializes all device
	// accesses, so journal order is device order). Each op's Site is an ID
	// in Trace.Sites; untraced ops (Zero) record site 0.
	Ops []pmem.Op

	nextLock uint64

	// BeforeOp, when set, is called before every instrumented operation
	// (after the scheduling yield). The PMRace baseline uses it for delay
	// injection.
	BeforeOp func(c *Ctx, k trace.Kind, addr uint64, size uint32)
	// EventSink, when set, receives every instrumented event as it is
	// emitted — the hookup for hawkset.Stream's online analysis. It is
	// called regardless of NoTrace, so a streaming analysis does not pay for
	// trace storage.
	EventSink func(e trace.Event)
	// OnDirtyRead, when set, is called when a load observes
	// visible-but-not-persistent data written by another thread — the
	// observation event PMRace must hit to report a race.
	OnDirtyRead func(c *Ctx, loadSite sites.ID, addr uint64, size uint32, writer int32, storeSite sites.ID)

	// Side-band metric handles (nil when Config.Metrics is unset). The
	// pool counts device ops by kind (pmem.flushes, pmem.fences, ...).
	mEvents       *obs.Counter
	mJournalOps   *obs.Counter
	mJournalBytes *obs.Counter
	mElided       *obs.Counter

	// elideCache memoizes per-site elision decisions (the cooperative
	// scheduler serializes all instrumented operations, so no lock).
	elideCache map[sites.ID]bool
	// siteCache answers here's captures in front of Trace.Sites, without
	// the table's lock for the same reason.
	siteCache *sites.Cache
}

// New creates a runtime. The first pmem.LineSize bytes of the pool are
// reserved so that address 0 can serve as the applications' nil persistent
// pointer.
func New(cfg Config) *Runtime {
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 32 << 20
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 1 << 34
	}
	r := &Runtime{
		cfg:   cfg,
		Sched: sched.New(cfg.Seed, cfg.MaxSteps),
		Pool: pmem.New(cfg.PoolSize, pmem.Options{
			EADR: cfg.EADR, TrackWriters: cfg.TrackWriters, EvictAfter: cfg.EvictAfter,
			Metrics: cfg.Metrics,
		}),
		Heap:          pmem.NewHeap(pmem.LineSize, cfg.PoolSize-pmem.LineSize),
		mEvents:       cfg.Metrics.Counter("pmrt.events"),
		mJournalOps:   cfg.Metrics.Counter("pmrt.journal.ops"),
		mJournalBytes: cfg.Metrics.Counter("pmrt.journal.bytes"),
		mElided:       cfg.Metrics.Counter("pmrt.elided"),
	}
	if len(cfg.ElideSites) > 0 {
		r.elideCache = make(map[sites.ID]bool)
	}
	if !cfg.NoTrace {
		r.Trace = trace.New()
	} else {
		// A site table is still needed for dirty-read attribution.
		r.Trace = &trace.Trace{Sites: sites.NewTable()}
	}
	r.siteCache = sites.NewCache(r.Trace.Sites)
	return r
}

// NewWithPool creates a runtime over an existing device — the post-crash
// recovery path: reboot the pool (pmem.Pool.Reboot), then run recovery code
// on a fresh runtime against the surviving contents.
func NewWithPool(cfg Config, pool *pmem.Pool, heap *pmem.Heap) *Runtime {
	r := New(cfg)
	r.Pool = pool
	if heap != nil {
		r.Heap = heap
	}
	return r
}

// Run executes main as the root simulated thread and returns when all
// threads have finished (or a deadlock/livelock error). The site-capture
// counts of the run go to Config.Metrics as sites.fast, sites.slow and
// sites.resolved, and the scheduler's as sched.steps and sched.switches.
func (r *Runtime) Run(main func(c *Ctx)) error {
	err := r.Sched.Run(func(t *sched.Thread) {
		main(&Ctx{r: r, th: t})
	})
	n := r.siteCache.Counts() // the table is this runtime's own
	r.cfg.Metrics.Counter("sites.fast").Add(n.Fast)
	r.cfg.Metrics.Counter("sites.slow").Add(n.Slow)
	r.cfg.Metrics.Counter("sites.resolved").Add(n.Resolved)
	r.cfg.Metrics.Counter("sched.steps").Add(r.Sched.Steps())
	r.cfg.Metrics.Counter("sched.switches").Add(r.Sched.Switches())
	return err
}

// Ctx is a simulated thread's handle to the runtime. Every instrumented
// operation is a Ctx method; the operation's trace event records the Go call
// site of the Ctx method's caller, so application source lines appear in
// race reports.
type Ctx struct {
	r  *Runtime
	th *sched.Thread
}

// TID returns the simulated thread's ID.
func (c *Ctx) TID() int32 { return c.th.ID() }

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.r }

// here captures the application call site two frames up (the caller of the
// exported Ctx method). It must be called directly from an exported Ctx
// method, and neither may be inlined: the site cache's frame-pointer key
// assumes exactly two physical frames between it and the application
// (DESIGN.md §14, pinned by TestCtxMethodsCaptureOnFastPath).
//
//go:noinline
func (c *Ctx) here() sites.ID { return c.r.siteCache.Here(2) }

func (c *Ctx) pre(k trace.Kind, addr uint64, size uint32) {
	c.th.Yield()
	if c.r.BeforeOp != nil {
		c.r.BeforeOp(c, k, addr, size)
	}
}

func (c *Ctx) emit(e trace.Event) {
	c.r.mEvents.Inc()
	if !c.r.cfg.NoTrace {
		c.r.Trace.Append(e)
	}
	if c.r.EventSink != nil {
		c.r.EventSink(e)
	}
}

// lastSeq returns the trace index of the most recently emitted event, or -1
// when tracing is disabled.
func (c *Ctx) lastSeq() int {
	if c.r.cfg.NoTrace {
		return -1
	}
	return c.r.Trace.Len() - 1
}

// journal appends a device op under Config.RecordOps. data is copied —
// callers reuse stack buffers. Must be called AFTER the matching emit so
// seq correlation via lastSeq is stable.
func (c *Ctx) journal(kind pmem.OpKind, addr uint64, size uint32, data []byte, seq int, site sites.ID) {
	if !c.r.cfg.RecordOps {
		return
	}
	var cp []byte
	if data != nil {
		cp = make([]byte, len(data))
		copy(cp, data)
	}
	c.r.Ops = append(c.r.Ops, pmem.Op{Kind: kind, TID: c.th.ID(), Addr: addr, Size: size, Site: int32(site), Data: cp, Seq: seq})
	c.r.mJournalOps.Inc()
	c.r.mJournalBytes.Add(uint64(len(cp)))
}

// elided reports whether flush/fence effects from site are suppressed under
// Config.ElideSites, memoizing the resolved module-relative file:line key
// per site ID.
func (r *Runtime) elided(site sites.ID) bool {
	if r.elideCache == nil {
		return false
	}
	if v, ok := r.elideCache[site]; ok {
		return v
	}
	v := r.cfg.ElideSites[r.Trace.Sites.Lookup(site).Key()]
	r.elideCache[site] = v
	return v
}

// Store writes data to PM at addr (a cached, temporal store: visible
// immediately, persistent only after flush+fence).
//
//go:noinline
func (c *Ctx) Store(addr uint64, data []byte) {
	site := c.here()
	c.storeAt(site, addr, data)
}

func (c *Ctx) storeAt(site sites.ID, addr uint64, data []byte) {
	c.pre(trace.KStore, addr, uint32(len(data)))
	c.r.Pool.Store(c.th.ID(), addr, data, int32(site))
	c.emit(trace.Event{Kind: trace.KStore, TID: c.th.ID(), Addr: addr, Size: uint32(len(data)), Site: site})
	c.journal(pmem.OpStore, addr, uint32(len(data)), data, c.lastSeq(), site)
}

// Store8 writes a uint64 (little-endian).
//
//go:noinline
func (c *Ctx) Store8(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.storeAt(c.here(), addr, b[:])
}

// Store4 writes a uint32.
//
//go:noinline
func (c *Ctx) Store4(addr uint64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.storeAt(c.here(), addr, b[:])
}

// Store1 writes a byte.
//
//go:noinline
func (c *Ctx) Store1(addr uint64, v byte) {
	c.storeAt(c.here(), addr, []byte{v})
}

// NTStore8 writes a uint64 with a non-temporal store: it bypasses the cache
// (no flush needed) but still requires a Fence for the persistence
// guarantee.
//
//go:noinline
func (c *Ctx) NTStore8(addr uint64, v uint64) {
	site := c.here()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.pre(trace.KNTStore, addr, 8)
	c.r.Pool.NTStore(c.th.ID(), addr, b[:], int32(site))
	c.emit(trace.Event{Kind: trace.KNTStore, TID: c.th.ID(), Addr: addr, Size: 8, Site: site})
	c.journal(pmem.OpNTStore, addr, 8, b[:], c.lastSeq(), site)
}

// Load reads size bytes from PM at addr into a new slice.
//
//go:noinline
func (c *Ctx) Load(addr uint64, size uint32) []byte {
	site := c.here()
	buf := make([]byte, size)
	c.loadInto(site, addr, buf)
	return buf
}

// loadInto reads len(buf) bytes at addr into buf. The typed loads pass
// stack arrays, so they allocate nothing.
func (c *Ctx) loadInto(site sites.ID, addr uint64, buf []byte) {
	size := uint32(len(buf))
	c.pre(trace.KLoad, addr, size)
	c.r.Pool.Load(addr, buf)
	c.emit(trace.Event{Kind: trace.KLoad, TID: c.th.ID(), Addr: addr, Size: size, Site: site})
	if c.r.OnDirtyRead != nil {
		if writer, storeSite, ok := c.r.Pool.DirtyRead(c.th.ID(), addr, uint64(size)); ok {
			c.r.OnDirtyRead(c, site, addr, size, writer, sites.ID(storeSite))
		}
	}
}

// Load8 reads a uint64.
//
//go:noinline
func (c *Ctx) Load8(addr uint64) uint64 {
	var b [8]byte
	c.loadInto(c.here(), addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Load4 reads a uint32.
//
//go:noinline
func (c *Ctx) Load4(addr uint64) uint32 {
	var b [4]byte
	c.loadInto(c.here(), addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Load1 reads a byte.
//
//go:noinline
func (c *Ctx) Load1(addr uint64) byte {
	var b [1]byte
	c.loadInto(c.here(), addr, b[:])
	return b[0]
}

// Flush issues a CLWB for the cache line containing addr.
//
//go:noinline
func (c *Ctx) Flush(addr uint64) {
	site := c.here()
	c.pre(trace.KFlush, addr, 0)
	if c.r.elided(site) {
		c.r.mElided.Inc()
		return
	}
	c.r.Pool.Flush(c.th.ID(), addr)
	c.emit(trace.Event{Kind: trace.KFlush, TID: c.th.ID(), Addr: pmem.LineOf(addr) * pmem.LineSize, Site: site})
	c.journal(pmem.OpFlush, addr, 0, nil, c.lastSeq(), site)
}

// Fence issues an SFENCE, completing this thread's pending flushes.
//
//go:noinline
func (c *Ctx) Fence() {
	site := c.here()
	c.pre(trace.KFence, 0, 0)
	if c.r.elided(site) {
		c.r.mElided.Inc()
		return
	}
	c.r.Pool.Fence(c.th.ID())
	c.emit(trace.Event{Kind: trace.KFence, TID: c.th.ID(), Site: site})
	c.journal(pmem.OpFence, 0, 0, nil, c.lastSeq(), site)
}

// Persist flushes every line of [addr, addr+size) and fences: the idiomatic
// flush-and-fence sequence PM libraries expose (e.g. pmem_persist).
//
//go:noinline
func (c *Ctx) Persist(addr uint64, size uint64) {
	site := c.here()
	el := c.r.elided(site)
	if size > 0 {
		// Subtraction-form bound: addr+size-1 wraps for ranges ending at
		// the top of the address space, silently skipping every flush.
		first := pmem.LineOf(addr)
		last := pmem.LineOf(pmem.LastByte(addr, size))
		for l := first; l <= last; l++ {
			c.pre(trace.KFlush, l*pmem.LineSize, 0)
			if el {
				c.r.mElided.Inc()
				continue
			}
			c.r.Pool.Flush(c.th.ID(), l*pmem.LineSize)
			c.emit(trace.Event{Kind: trace.KFlush, TID: c.th.ID(), Addr: l * pmem.LineSize, Site: site})
			c.journal(pmem.OpFlush, l*pmem.LineSize, 0, nil, c.lastSeq(), site)
		}
	}
	c.pre(trace.KFence, 0, 0)
	if el {
		c.r.mElided.Inc()
		return
	}
	c.r.Pool.Fence(c.th.ID())
	c.emit(trace.Event{Kind: trace.KFence, TID: c.th.ID(), Site: site})
	c.journal(pmem.OpFence, 0, 0, nil, c.lastSeq(), site)
}

// CAS8 performs an atomic compare-and-swap of the uint64 at addr. It is a
// lock-free primitive: the trace records the load (and the store on
// success) with no lock held, exactly how HawkSet sees an uninstrumented
// CAS. Atomicity is native under the cooperative scheduler.
//
//go:noinline
func (c *Ctx) CAS8(addr uint64, old, new uint64) bool {
	site := c.here()
	c.pre(trace.KLoad, addr, 8)
	cur := c.r.Pool.Load8(addr)
	c.emit(trace.Event{Kind: trace.KLoad, TID: c.th.ID(), Addr: addr, Size: 8, Site: site})
	if cur != old {
		return false
	}
	c.r.Pool.Store8(c.th.ID(), addr, new, int32(site))
	c.emit(trace.Event{Kind: trace.KStore, TID: c.th.ID(), Addr: addr, Size: 8, Site: site})
	var nb [8]byte
	binary.LittleEndian.PutUint64(nb[:], new)
	c.journal(pmem.OpStore, addr, 8, nb[:], c.lastSeq(), site)
	return true
}

// Alloc allocates size bytes from the PM heap. By default allocation is not
// an instrumented event (HawkSet deliberately does not instrument PM
// allocators, §7); Config.InstrumentAllocs opts into recording it.
//
//go:noinline
func (c *Ctx) Alloc(size uint64) uint64 {
	addr := c.r.Heap.Alloc(size)
	if c.r.cfg.InstrumentAllocs {
		c.emit(trace.Event{Kind: trace.KAlloc, TID: c.th.ID(), Addr: addr, Size: uint32(size), Site: c.here()})
	}
	return addr
}

// RecordAlloc emits an allocation event for memory recycled by an
// application-level allocator (e.g. a slab allocator's free list): the
// analogue of wrapping the application's PM allocation primitives the way
// §5.5 wraps its synchronization primitives. No-op unless
// Config.InstrumentAllocs is set.
//
//go:noinline
func (c *Ctx) RecordAlloc(addr, size uint64) {
	if c.r.cfg.InstrumentAllocs {
		c.emit(trace.Event{Kind: trace.KAlloc, TID: c.th.ID(), Addr: addr, Size: uint32(size), Site: c.here()})
	}
}

// Free returns a block to the PM heap. Freed memory can be handed out again,
// reproducing the address-reuse pattern that defeats the Initialization
// Removal Heuristic (§5.4, memcached-pmem).
func (c *Ctx) Free(addr uint64) { c.r.Heap.Free(addr) }

// Zero writes size zero bytes at addr without tracing (fresh-allocation
// scrub used by application allocator wrappers; mirrors an uninstrumented
// memset inside the allocator).
//
// Contract: Zero is an ordinary cached store in every respect except
// observability. It emits no trace event and records no call site (the
// analysis never sees it, exactly as HawkSet never sees a memset inside an
// uninstrumented allocator), it does not yield to the scheduler, and — like
// any store — it only dirties the covered cache lines. Under the worst-case
// cache model the zeroes are NOT persistent until the caller issues a
// covering Flush+Fence or Persist; a crash after an un-fenced Zero drops
// them and the pre-Zero bytes survive. Callers relying on a scrubbed block
// being durably zero must persist the range themselves.
func (c *Ctx) Zero(addr uint64, size uint64) {
	buf := make([]byte, size)
	c.r.Pool.Store(c.th.ID(), addr, buf, 0)
	// nil Data + Size encodes "Size zero bytes"; Seq -1 and site 0 mark the
	// op as untraced.
	c.journal(pmem.OpStore, addr, uint32(size), nil, -1, 0)
}

// Yield cedes the virtual CPU (coverage/diversity aid in workload drivers).
func (c *Ctx) Yield() { c.th.Yield() }

// Thread is a handle to a spawned simulated thread.
type Thread struct {
	t *sched.Thread
}

// Spawn starts fn on a new simulated thread, recording the thread-create
// event that drives the inter-thread happens-before analysis.
//
//go:noinline
func (c *Ctx) Spawn(fn func(c *Ctx)) *Thread {
	site := c.here()
	nt := c.th.Spawn(func(t *sched.Thread) {
		fn(&Ctx{r: c.r, th: t})
	})
	c.emit(trace.Event{Kind: trace.KThreadCreate, TID: c.th.ID(), Kid: nt.ID(), Site: site})
	return &Thread{t: nt}
}

// Join waits for th to finish, recording the thread-join event.
//
//go:noinline
func (c *Ctx) Join(th *Thread) {
	site := c.here()
	c.th.Join(th.t)
	c.emit(trace.Event{Kind: trace.KThreadJoin, TID: c.th.ID(), Kid: th.t.ID(), Site: site})
}

// Park blocks the calling simulated thread until another thread calls
// Unpark on its handle. Test harnesses (e.g. the Durinn-style baseline's
// breakpoint scheduler) use it to hold a thread at a precise instruction
// boundary.
func (c *Ctx) Park(why string) { c.th.Park(why) }

// Unpark wakes a thread parked via Park.
func (c *Ctx) Unpark(th *Thread) { c.th.Unpark(th.t) }

// Parked reports whether the thread is currently blocked in Park.
func (th *Thread) Parked() bool { return th.t.Blocked() }
