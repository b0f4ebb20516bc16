package main

import (
	"encoding/json"
	"time"
)

// span is one host-clock interval the harness spent inside a call into a
// layer. Parent indexes spanLog.spans (-1 for a top-level span).
type span struct {
	name       string
	start, end time.Duration // since the log was opened
	parent     int
	workload   string
	rep        int
}

// spanLog keeps the harness spans in memory; they are written out, if
// asked for, when the benchmark ends.
type spanLog struct {
	t0       time.Time
	spans    []span
	open     []int // stack of spans begun and not yet ended
	workload string
	rep      int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under the innermost open one and returns the
// function that closes it and reports how long it was open.
func (l *spanLog) begin(name string) (end func() time.Duration) {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	idx := len(l.spans)
	l.spans = append(l.spans, span{name: name, start: time.Since(l.t0), parent: parent, workload: l.workload, rep: l.rep})
	l.open = append(l.open, idx)
	return func() time.Duration {
		sp := &l.spans[idx]
		sp.end = time.Since(l.t0)
		l.open = l.open[:len(l.open)-1]
		return sp.end - sp.start
	}
}

// chromeJSON renders the spans in the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev): one complete event per span, one
// track per workload.
func (l *spanLog) chromeJSON() ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"` // microseconds
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tids := map[string]int{}
	events := make([]event, 0, len(l.spans))
	for i, s := range l.spans {
		if _, ok := tids[s.workload]; !ok {
			tids[s.workload] = len(tids) + 1
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: tids[s.workload],
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.parent, "workload": s.workload, "rep": s.rep},
		})
	}
	return json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
}
