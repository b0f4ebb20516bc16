package fault

import (
	"cloudburst/internal/cluster"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// Entry is one applied fault on the recorded timeline.
type Entry struct {
	At   vtime.Time
	Desc string
}

// Injector applies fault plans to a cluster. It owns a network endpoint
// and a simnet.Dispatcher, so plans run as ordinary named daemons on the
// virtual clock; the applied events accumulate on Timeline, which
// experiments align with their latency samples.
//
// The kernel runs one party at a time, so an injector needs no locking;
// like every other component it must only be driven from kernel
// processes (or between kernel runs for setup).
type Injector struct {
	c    *cluster.Cluster
	disp *simnet.Dispatcher

	// Timeline records every applied event in order.
	Timeline []Entry

	splitBrains map[string][][2]simnet.NodeID
	running     int
}

// NewInjector creates an injector for c.
func NewInjector(c *cluster.Cluster) *Injector {
	return &Injector{
		c:           c,
		disp:        simnet.NewDispatcher(c.NewClientEndpoint(), "fault"),
		splitBrains: make(map[string][][2]simnet.NodeID),
	}
}

// Run executes a plan to completion, sleeping the virtual clock between
// events. It must be called from a kernel process; use Start for the
// daemon form.
func (inj *Injector) Run(p *Plan) {
	inj.running++
	defer func() { inj.running-- }()
	start := inj.c.K.Now()
	for _, ev := range p.sorted() {
		due := start.Add(ev.At)
		if due > inj.c.K.Now() {
			inj.c.K.Sleep(due.Sub(inj.c.K.Now()))
		}
		desc := ev.Action.Apply(inj)
		if p.Name != "" {
			desc = p.Name + ": " + desc
		}
		inj.log(desc)
	}
}

// log records desc on the timeline at the current virtual time.
func (inj *Injector) log(desc string) {
	inj.Timeline = append(inj.Timeline, Entry{At: inj.c.K.Now(), Desc: desc})
}

// Start runs the plan as a background daemon on the injector's
// dispatcher and returns immediately.
func (inj *Injector) Start(p *Plan) { inj.disp.Go("plan", func() { inj.Run(p) }) }

// Running reports whether a Start-ed plan is still executing.
func (inj *Injector) Running() bool { return inj.running > 0 }

// TimelineStrings renders the timeline for reports, each entry stamped
// with its virtual time.
func (inj *Injector) TimelineStrings() []string {
	out := make([]string, len(inj.Timeline))
	for i, e := range inj.Timeline {
		out[i] = "t=" + e.At.String() + " " + e.Desc
	}
	return out
}
