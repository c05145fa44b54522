package main

import "time"

// span is one timed call into a layer, recorded by the benchmark around the
// call. An aggregate span times many calls, such as Decoder.Next or
// Stream.Feed once per event, and its Dur is their sum, not End − Start.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Cycle   int    `json:"cycle"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // Unix time
	EndNS   int64  `json:"end_ns"`
	DurNS   int64  `json:"dur_ns"`
	Calls   int    `json:"calls,omitempty"` // calls timed by an aggregate span

	t0  time.Time
	agg bool
}

// tracer keeps one cycle's spans in memory. A nil tracer and its nil spans
// record nothing, so an untraced cycle runs the same code without reading
// the clock per event.
type tracer struct {
	cycle int
	spans []*span
}

func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: len(t.spans) + 1, Cycle: t.cycle, Name: name, t0: time.Now()}
	s.StartNS = s.t0.UnixNano()
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

func (t *tracer) aggregate(name string, parent *span) *span {
	s := t.begin(name, parent)
	if s != nil {
		s.agg = true
	}
	return s
}

func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Now()
	s.EndNS = now.UnixNano()
	if !s.agg {
		s.DurNS = now.Sub(s.t0).Nanoseconds()
	}
}

// start and stop time one call of an aggregate span.
func (s *span) start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *span) stop(t0 time.Time) {
	if s != nil {
		s.DurNS += time.Since(t0).Nanoseconds()
		s.Calls++
	}
}

// seconds is the summed duration of the spans named name.
func (t *tracer) seconds(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.DurNS
		}
	}
	return float64(ns) / 1e9
}

// selfSeconds is seconds(name) minus the time those spans' children cover.
func (t *tracer) selfSeconds(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += selfNS(t.spans, s)
		}
	}
	return float64(ns) / 1e9
}

func selfNS(spans []*span, s *span) int64 {
	ns := s.DurNS
	for _, c := range spans {
		if c.Cycle == s.Cycle && c.Parent == s.ID {
			ns -= c.DurNS
		}
	}
	return ns
}
