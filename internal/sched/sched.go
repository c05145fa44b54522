// Package sched implements a deterministic cooperative scheduler for
// simulated threads. Exactly one simulated thread runs at a time; at every
// yield point (the instrumented runtime yields before each PM access and
// synchronization operation) a seeded RNG picks the next runnable thread.
//
// This substitutes for the OS scheduler under Intel PIN in the original
// HawkSet: lockset analysis is interleaving-insensitive, but a deterministic
// schedule makes every experiment reproducible from a seed, and it gives the
// PMRace-style baseline (internal/baseline/pmrace) the schedule control it
// needs for delay injection.
//
// Simulated threads are iter.Pull coroutines resumed by a loop in Run. A
// thread that yields, parks or exits picks its successor and switches back
// to the loop only if it picked another thread. The switch orders memory, so
// scheduler state needs no locking. Run unwinds the threads of an aborted run.
package sched

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"sort"
)

// Sentinel causes a Run error wraps, so harnesses driving untrusted code
// (the crash-injection campaign runs app recovery on torn images) can
// classify failures with errors.Is instead of string matching.
var (
	// ErrAppPanic: a simulated thread's application code panicked.
	ErrAppPanic = errors.New("panicked")
	// ErrStepBound: the run exceeded its scheduling-step bound (livelock).
	ErrStepBound = errors.New("step bound exceeded")
	// ErrDeadlock: every live thread is blocked.
	ErrDeadlock = errors.New("deadlock")
)

// State describes a simulated thread's lifecycle.
type State uint8

// Thread states.
const (
	Runnable State = iota
	Running
	Blocked
	Done
)

// Thread is a simulated thread. All methods must be called from the thread's
// own coroutine while it is the running thread.
type Thread struct {
	id      int32
	s       *Scheduler
	state   State
	why     string    // block reason, for deadlock diagnostics
	joiners []*Thread // threads blocked in Join on this thread
	// resume and stop drive the coroutine; yield switches out to Run.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
}

// ID returns the thread's identifier. The root thread is 0; children are
// numbered in creation order.
func (t *Thread) ID() int32 { return t.id }

// Scheduler multiplexes simulated threads deterministically.
type Scheduler struct {
	rng      *rand.Rand
	threads  []*Thread
	runnable []*Thread
	current  *Thread
	steps    uint64
	switches uint64
	maxSteps uint64
	err      error // the first error, which ends the run
}

// New creates a scheduler whose thread-selection order is fully determined
// by seed. maxSteps bounds total scheduling decisions (0 means no bound) and
// guards against livelock in buggy applications under test.
func New(seed int64, maxSteps uint64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed)), maxSteps: maxSteps}
}

// Steps returns the number of scheduling decisions taken so far.
func (s *Scheduler) Steps() uint64 { return s.steps }

// Switches returns the number of picks that moved the CPU to another thread.
func (s *Scheduler) Switches() uint64 { return s.switches }

// unwind is panicked through a thread that Run stops, up to its coroutine.
type unwind struct{}

// Run executes main as thread 0 and returns once every spawned thread has
// finished. It returns an error if the program deadlocks (all live threads
// blocked), exceeds the step bound or panics. Run may only be called once
// per Scheduler.
func (s *Scheduler) Run(main func(t *Thread)) error {
	if s.threads != nil {
		return fmt.Errorf("sched: Run called twice")
	}
	s.current = s.newThread(main)
	s.current.state = Running
	defer func() {
		for i := 0; i < len(s.threads); i++ { // unwinding code may Spawn
			s.threads[i].stop()
		}
	}()
	for s.current != nil && s.err == nil {
		s.current.resume()
	}
	return s.err
}

// newThread creates a runnable thread whose coroutine runs fn and then
// exits the thread. An application panic ends the run with ErrAppPanic.
func (s *Scheduler) newThread(fn func(t *Thread)) *Thread {
	t := &Thread{id: int32(len(s.threads)), s: s}
	t.resume, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		defer func() {
			if r := recover(); r != nil && r != (unwind{}) {
				s.fail(fmt.Errorf("sched: thread %d %w: %v", t.id, ErrAppPanic, r))
			}
		}()
		fn(t)
		t.exit()
	})
	s.threads = append(s.threads, t)
	return t
}

// fail records err as the run's result unless an error already is.
func (s *Scheduler) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Spawn creates a new runnable thread executing fn. Must be called from the
// running thread.
func (t *Thread) Spawn(fn func(t *Thread)) *Thread {
	nt := t.s.newThread(fn)
	t.s.runnable = append(t.s.runnable, nt)
	return nt
}

// Yield gives up the virtual CPU; the scheduler picks the next thread to run
// (possibly this one again) using the seeded RNG.
func (t *Thread) Yield() {
	t.state = Runnable
	t.s.runnable = append(t.s.runnable, t)
	if !t.s.dispatch(t) {
		t.suspend()
	}
}

// Park blocks the thread with a diagnostic reason until another thread calls
// Unpark on it. Must be called from the running thread.
func (t *Thread) Park(why string) {
	t.state = Blocked
	t.why = why
	t.s.dispatch(t)
	t.suspend()
}

// Unpark makes target runnable again. Must be called from the running
// thread; the caller keeps running.
func (t *Thread) Unpark(target *Thread) {
	if target.state != Blocked {
		panic(fmt.Sprintf("sched: Unpark of thread %d in state %d", target.id, target.state))
	}
	target.state = Runnable
	target.why = ""
	t.s.runnable = append(t.s.runnable, target)
}

// Join blocks until target has finished.
func (t *Thread) Join(target *Thread) {
	if target.state == Done {
		return
	}
	target.joiners = append(target.joiners, t)
	t.Park(fmt.Sprintf("join(%d)", target.id))
}

// Done reports whether the thread has finished.
func (t *Thread) Done() bool { return t.state == Done }

// exit marks the running thread finished, wakes joiners, and hands the CPU
// to the next runnable thread; if none remain the whole run completes.
func (t *Thread) exit() {
	t.state = Done
	for _, j := range t.joiners {
		t.Unpark(j)
	}
	if len(t.s.runnable) > 0 {
		t.s.dispatch(t)
	} else if blocked := t.s.blockedThreads(); len(blocked) > 0 {
		t.s.fail(fmt.Errorf("sched: %w — all live threads blocked: %v", ErrDeadlock, blocked))
	} else {
		t.s.current = nil
	}
}

// suspend switches out to Run until t is resumed, or unwinds t if stopped.
func (t *Thread) suspend() {
	if !t.yield(struct{}{}) {
		panic(unwind{})
	}
}

// dispatch picks the thread to run after t, which must already be in its
// new state, and reports whether t was picked again. Any other pick becomes
// current, and a failed one the run's error. After the run has ended it
// picks nothing, so a thread that Run stops unwinds at its next yield.
func (s *Scheduler) dispatch(t *Thread) bool {
	if s.err != nil {
		return false
	}
	next, err := s.pick()
	switch {
	case err != nil:
		s.fail(err)
	case next == t:
		t.state = Running
		return true
	default:
		s.switches++
		s.current = next
		next.state = Running
	}
	return false
}

func (s *Scheduler) pick() (*Thread, error) {
	if s.maxSteps > 0 && s.steps >= s.maxSteps {
		return nil, fmt.Errorf("sched: %w: step bound %d (livelock?)", ErrStepBound, s.maxSteps)
	}
	if len(s.runnable) == 0 {
		return nil, fmt.Errorf("sched: %w — all live threads blocked: %v", ErrDeadlock, s.blockedThreads())
	}
	s.steps++
	i := s.rng.Intn(len(s.runnable))
	next := s.runnable[i]
	s.runnable[i] = s.runnable[len(s.runnable)-1]
	s.runnable = s.runnable[:len(s.runnable)-1]
	return next, nil
}

func (s *Scheduler) blockedThreads() []string {
	var out []string
	for _, t := range s.threads {
		if t.state == Blocked {
			out = append(out, fmt.Sprintf("T%d(%s)", t.id, t.why))
		}
	}
	sort.Strings(out)
	return out
}

// Blocked reports whether the thread is currently parked. Safe to read from
// the running thread (the cooperative handoff orders all state access).
func (t *Thread) Blocked() bool { return t.state == Blocked }
