package hawkset

import "hawkset/internal/trace"

// The generated traces of this package's tests, for the external test
// package, which can also build app traces.
var (
	RandTrace        = randTrace
	OrderedRandTrace = orderedRandTrace
	SpanningTrace    = spanningTrace
)

// AnalyzeByPairLoop is Analyze with stage ③ run by pairLoopAnalyze.
func AnalyzeByPairLoop(tr *trace.Trace, cfg Config) *Result {
	res := replayed(tr, cfg)
	pairLoopAnalyze(res, cfg)
	sortReports(res.Reports)
	return res
}
