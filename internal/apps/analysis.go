package apps

import (
	"sort"

	"hawkset/internal/hawkset"
)

// Detect runs a generated workload against the application and analyzes the
// trace with HawkSet, returning the analysis result. It is the
// one-call-per-application path the experiments and tests share.
func Detect(e *Entry, opCount int, seed int64, runCfg RunConfig, cfg hawkset.Config) (*hawkset.Result, error) {
	rt, err := Run(e, e.Workload(opCount, seed), runCfg)
	if err != nil {
		return nil, err
	}
	return hawkset.Analyze(rt.Trace, cfg), nil
}

// FoundBugs maps analysis reports back to the application's registered
// Table 2 bugs, returning the sorted IDs of the bugs with at least one
// matching report.
func FoundBugs(e *Entry, res *hawkset.Result) []int {
	found := map[int]bool{}
	for _, r := range res.Reports {
		for _, b := range e.Bugs {
			if b.Matches(r) {
				found[b.ID] = true
			}
		}
	}
	var ids []int // nil when no bug matched, for direct DeepEqual use
	for id := range found {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Breakdown tallies reports per Table 4 class.
func Breakdown(e *Entry, res *hawkset.Result) map[Class]int {
	out := map[Class]int{}
	for _, r := range res.Reports {
		out[e.Classify(r)]++
	}
	return out
}
