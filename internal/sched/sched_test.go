package sched

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestSingleThreadRuns(t *testing.T) {
	ran := false
	if err := New(1, 0).Run(func(th *Thread) { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("main did not run")
	}
}

func TestSpawnAndJoin(t *testing.T) {
	var order []string
	err := New(1, 0).Run(func(th *Thread) {
		child := th.Spawn(func(c *Thread) {
			order = append(order, "child")
		})
		th.Join(child)
		order = append(order, "parent-after-join")
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "child,parent-after-join" {
		t.Fatalf("order = %v", order)
	}
}

func TestManyThreadsAllRun(t *testing.T) {
	const n = 50
	ran := make([]bool, n)
	err := New(7, 0).Run(func(th *Thread) {
		var kids []*Thread
		for i := 0; i < n; i++ {
			i := i
			kids = append(kids, th.Spawn(func(c *Thread) {
				c.Yield()
				ran[i] = true
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("thread %d did not run", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) string {
		var log []string
		err := New(seed, 0).Run(func(th *Thread) {
			var kids []*Thread
			for i := 0; i < 4; i++ {
				i := i
				kids = append(kids, th.Spawn(func(c *Thread) {
					for j := 0; j < 5; j++ {
						log = append(log, fmt.Sprintf("%d.%d", i, j))
						c.Yield()
					}
				}))
			}
			for _, k := range kids {
				th.Join(k)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, " ")
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	c := run(43)
	if a == c {
		t.Fatal("different seeds produced identical schedule (suspicious for 20 interleaved yields)")
	}
}

func TestInterleaving(t *testing.T) {
	// With yields, two threads must actually interleave under some seed.
	interleaved := false
	for seed := int64(0); seed < 10 && !interleaved; seed++ {
		var log []string
		err := New(seed, 0).Run(func(th *Thread) {
			a := th.Spawn(func(c *Thread) {
				for i := 0; i < 5; i++ {
					log = append(log, "a")
					c.Yield()
				}
			})
			b := th.Spawn(func(c *Thread) {
				for i := 0; i < 5; i++ {
					log = append(log, "b")
					c.Yield()
				}
			})
			th.Join(a)
			th.Join(b)
		})
		if err != nil {
			t.Fatal(err)
		}
		s := strings.Join(log, "")
		if strings.Contains(s, "ab") && strings.Contains(s, "ba") {
			interleaved = true
		}
	}
	if !interleaved {
		t.Fatal("no seed interleaved two yielding threads")
	}
}

func TestParkUnpark(t *testing.T) {
	var got string
	err := New(3, 0).Run(func(th *Thread) {
		var waiter *Thread
		waiter = th.Spawn(func(c *Thread) {
			c.Park("waiting for signal")
			got = "woken"
		})
		// Let the waiter park.
		for i := 0; i < 10; i++ {
			th.Yield()
		}
		th.Unpark(waiter)
		th.Join(waiter)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "woken" {
		t.Fatal("parked thread was not woken")
	}
}

func TestDeadlockDetected(t *testing.T) {
	err := New(1, 0).Run(func(th *Thread) {
		child := th.Spawn(func(c *Thread) {
			c.Park("forever")
		})
		th.Join(child)
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestStepBound(t *testing.T) {
	err := New(1, 100).Run(func(th *Thread) {
		for {
			th.Yield()
		}
	})
	if !errors.Is(err, ErrStepBound) {
		t.Fatalf("err = %v, want ErrStepBound", err)
	}
}

// TestStepBoundAtExit: the bound is reached by the pick a finishing thread
// makes for its successor, which must end the run like any other pick.
func TestStepBoundAtExit(t *testing.T) {
	err := New(1, 1).Run(func(th *Thread) {
		th.Spawn(func(*Thread) {})
		th.Yield()
	})
	if !errors.Is(err, ErrStepBound) {
		t.Fatalf("err = %v, want ErrStepBound", err)
	}
}

func TestThreadPanicSurfaces(t *testing.T) {
	err := New(1, 0).Run(func(th *Thread) {
		child := th.Spawn(func(c *Thread) {
			panic("boom")
		})
		th.Join(child)
	})
	if !errors.Is(err, ErrAppPanic) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want ErrAppPanic carrying the panic value", err)
	}
}

// TestAbortedRunsLeaveNoGoroutines: a run that ends in a deadlock, at the
// step bound or in a panic unwinds its unfinished threads, so repeated
// aborted runs do not accumulate goroutines.
func TestAbortedRunsLeaveNoGoroutines(t *testing.T) {
	spin := func(c *Thread) {
		for {
			c.Yield()
		}
	}
	programs := []struct {
		name     string
		maxSteps uint64
		main     func(th *Thread)
		want     error
	}{
		{"deadlock", 0, func(th *Thread) {
			park := func(c *Thread) { c.Yield(); c.Park("forever") }
			a := th.Spawn(park)
			th.Spawn(park)
			th.Join(a)
		}, ErrDeadlock},
		{"step bound", 50, func(th *Thread) {
			th.Spawn(spin)
			th.Spawn(spin)
			spin(th)
		}, ErrStepBound},
		{"panic", 0, func(th *Thread) {
			th.Spawn(spin)
			b := th.Spawn(func(c *Thread) {
				c.Yield()
				panic("boom")
			})
			th.Join(b)
		}, ErrAppPanic},
	}
	start := runtime.NumGoroutine()
	for _, p := range programs {
		for seed := int64(0); seed < 100; seed++ {
			if err := New(seed, p.maxSteps).Run(p.main); !errors.Is(err, p.want) {
				t.Fatalf("%s, seed %d: err = %v, want %v", p.name, seed, err, p.want)
			}
		}
	}
	if n := runtime.NumGoroutine(); n > start+2 {
		t.Fatalf("%d goroutines after 300 aborted runs, %d before", n, start)
	}
}

// TestStoppedThreadDoesNotRun: once a run has ended, a thread that Run
// unwinds makes no further scheduling decision, even from deferred code.
func TestStoppedThreadDoesNotRun(t *testing.T) {
	s := New(1, 0)
	var steps uint64
	resumed := false
	err := s.Run(func(th *Thread) {
		th.Spawn(func(c *Thread) {
			defer func() {
				c.Yield()
				resumed = true
			}()
			for {
				c.Yield()
			}
		})
		th.Yield()
		steps = s.Steps()
		panic("boom")
	})
	if !errors.Is(err, ErrAppPanic) || resumed || s.Steps() != steps {
		t.Fatalf("err = %v, resumed = %v, steps %d -> %d", err, resumed, steps, s.Steps())
	}
}

func TestJoinFinishedThread(t *testing.T) {
	err := New(1, 0).Run(func(th *Thread) {
		child := th.Spawn(func(c *Thread) {})
		for i := 0; i < 20; i++ {
			th.Yield()
		}
		if !child.Done() {
			t.Error("child not done after 20 yields")
		}
		th.Join(child) // must not block
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSpawn(t *testing.T) {
	depth := 0
	err := New(5, 0).Run(func(th *Thread) {
		child := th.Spawn(func(c *Thread) {
			grand := c.Spawn(func(g *Thread) {
				depth = 2
			})
			c.Join(grand)
		})
		th.Join(child)
	})
	if err != nil {
		t.Fatal(err)
	}
	if depth != 2 {
		t.Fatal("grandchild did not run")
	}
}

func TestStepsAdvance(t *testing.T) {
	s := New(1, 0)
	if err := s.Run(func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Yield()
		}
	}); err != nil {
		t.Fatal(err)
	}
	// A lone thread's yields pick it again: steps, but no switches.
	if s.Steps() < 10 || s.Switches() != 0 {
		t.Fatalf("steps/switches = %d/%d, want >= 10 and 0", s.Steps(), s.Switches())
	}
}

// pinnedProgram runs five threads through every scheduling operation and
// renders the thread order (one digit per note), the step count and the
// error. Whether the run deadlocks depends on the order: thread 1 parks
// twice and is woken only by a thread that finds it parked.
func pinnedProgram(s *Scheduler) string {
	var order []byte
	note := func(t *Thread) { order = append(order, byte('0'+t.ID())) }
	err := s.Run(func(root *Thread) {
		waiter := root.Spawn(func(t *Thread) {
			for i := 0; i < 2; i++ {
				note(t)
				t.Park("signal")
			}
			note(t)
		})
		wake := func(t *Thread) {
			if waiter.Blocked() {
				t.Unpark(waiter)
			}
		}
		worker := func(t *Thread) {
			for j := 0; j < 3; j++ {
				note(t)
				t.Yield()
			}
			wake(t)
			note(t)
		}
		a := root.Spawn(worker)
		b := root.Spawn(worker)
		root.Spawn(func(t *Thread) {
			note(t)
			t.Yield()
			t.Join(a)
			wake(t)
			note(t)
		})
		root.Join(b)
		note(root)
		root.Join(waiter)
		note(root)
	})
	return fmt.Sprintf("%s steps=%d %v", order, s.Steps(), err)
}

// TestSchedulesPinned pins the exact thread order, step count and error of
// the scheduler at two seeds. The apps' site goldens and every seeded experiment depend
// on these orders, so a change here changes every interleaving.
func TestSchedulesPinned(t *testing.T) {
	const deadlock = " sched: deadlock — all live threads blocked: [T0(join(1)) T1(signal)]"
	for _, c := range []struct {
		name string
		s    *Scheduler
		want string
	}{
		{"New(1)", New(1, 0), "222241343133100 steps=14 <nil>"},
		{"New(42)", New(42, 0), "2212423334301 steps=13" + deadlock},
	} {
		if got := pinnedProgram(c.s); got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}
