package hawkset_test

import (
	"fmt"

	"hawkset/internal/hawkset"
	"hawkset/internal/trace"
)

// ExampleAnalyze runs the paper's Figure 1c through the analysis: both
// accesses hold lock A, but the persistency escapes the critical section,
// so the effective lockset is empty and the race is reported.
func ExampleAnalyze() {
	b := trace.NewBuilder()
	b.Create(0, 1, "main.create1").Create(0, 2, "main.create2")
	b.Lock(1, 1, "t1.lock")
	b.Store(1, 0x100, 8, "t1.store")
	b.Unlock(1, 1, "t1.unlock")
	b.Persist(1, 0x100, 8, "t1.persist") // outside the critical section!
	b.Lock(2, 1, "t2.lock")
	b.Load(2, 0x100, 8, "t2.load")
	b.Unlock(2, 1, "t2.unlock")
	b.Join(0, 1, "main.join").Join(0, 2, "main.join")

	cfg := hawkset.DefaultConfig()
	cfg.IRH = false // two-access toy program: nothing to prune
	res := hawkset.Analyze(b.T, cfg)
	for _, r := range res.Reports {
		fmt.Printf("race: store %s vs load %s\n", r.StoreFrame, r.LoadFrame)
	}
	// Output:
	// race: store t1.store vs load t2.load
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
