package hawkset_test

import (
	"fmt"

	"hawkset/internal/hawkset"
	"hawkset/internal/pmrt"
	"hawkset/internal/trace"
)

// ExampleAnalyze runs the paper's Figure 1c on the instrumented runtime.
// Two threads share a PM variable X protected by mutex A. T1 stores X inside
// the critical section but persists it outside; T2 loads X inside the
// critical section. Classic lockset analysis sees the common lock and stays
// silent. HawkSet's effective lockset sees the persistency escape the
// critical section and reports the race without observing the racy
// interleaving: a crash between the load and the persist keeps the load's
// side effects but loses the stored value. Persisting inside the critical
// section fixes it.
func ExampleAnalyze() {
	for _, inside := range []bool{false, true} {
		res := figure1c(inside)
		fmt.Printf("persist inside the critical section: %v, %d race(s)\n", inside, len(res.Reports))
		for _, r := range res.Reports {
			fmt.Printf("  store %s vs load %s, window ends by %s\n", r.StoreFrame, r.LoadFrame, r.EndKind)
		}
	}
	// Output:
	// persist inside the critical section: false, 1 race(s)
	//   store example_test.go:43 vs load example_test.go:54, window ends by persist
	// persist inside the critical section: true, 0 race(s)
}

// figure1c runs Figure 1c's two threads and analyzes the trace. inside moves
// T1's persist into the critical section.
func figure1c(inside bool) *hawkset.Result {
	rt := pmrt.New(pmrt.Config{Seed: 1, PoolSize: 1 << 20})
	mu := rt.NewMutex("A")
	err := rt.Run(func(c *pmrt.Ctx) {
		x := c.Alloc(8) // X: a persistent variable
		t1 := c.Spawn(func(c *pmrt.Ctx) {
			c.Lock(mu)
			c.Store8(x, 42) // store X: lockset {A}
			if inside {
				c.Persist(x, 8)
			}
			c.Unlock(mu)
			if !inside {
				c.Persist(x, 8) // persist X: lockset {}
			}
		})
		t2 := c.Spawn(func(c *pmrt.Ctx) {
			c.Lock(mu)
			c.Load8(x) // load X: lockset {A}
			c.Unlock(mu)
		})
		c.Join(t1)
		c.Join(t2)
	})
	if err != nil {
		panic(err)
	}
	cfg := hawkset.DefaultConfig()
	cfg.IRH = false // two-access toy program: nothing to prune
	return hawkset.Analyze(rt.Trace, cfg)
}

// ExampleStream shows the online mode: identical results without retaining
// the trace.
func ExampleStream() {
	b := trace.NewBuilder()
	b.Create(0, 1, "c1").Create(0, 2, "c2")
	b.Store(1, 0x100, 8, "t1.store") // never persisted
	b.Load(2, 0x100, 8, "t2.load")
	b.Join(0, 1, "j").Join(0, 2, "j")

	cfg := hawkset.DefaultConfig()
	cfg.IRH = false
	s := hawkset.NewStream(b.T.Sites, cfg)
	for e := range b.T.Events() {
		s.Feed(e) //nolint:errcheck // fresh stream: cannot fail before Finish
	}
	res, _ := s.Finish()
	fmt.Printf("%d report(s), unpersisted=%v\n", len(res.Reports), res.Reports[0].Unpersisted)
	// Output:
	// 1 report(s), unpersisted=true
}
