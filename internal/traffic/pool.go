package traffic

// The fire-and-forget pool: its client endpoints share one arrival
// stream and issue requests at the generated instants whether or not
// earlier requests have completed — the open-loop discipline. A
// bounded reaper re-issues requests that miss RetryAfter (routing the
// retry to the next scheduler shard), so a shard crash loses nothing,
// and a drain phase after the window lets in-flight work finish before
// the remainder is counted Lost.

import (
	"sort"
	"strconv"
	"time"

	"cloudburst/internal/core"
	"cloudburst/internal/scheduler"
	"cloudburst/internal/simnet"
	"cloudburst/internal/trace"
	"cloudburst/internal/vtime"
)

// Router maps a request onto a scheduler shard. Attempt 0 is the
// primary route; higher attempts walk the shard ranking so re-issues
// land elsewhere. *cluster.Cluster implements it.
type Router interface {
	RouteScheduler(reqID string, attempt int) simnet.NodeID
}

// Invocation is one generated request: either a single function call
// (Function/Args) or a DAG call (DAG/DAGArgs). The pool sorts DAGArgs in
// place by function name before sending it.
type Invocation struct {
	Function string
	Args     []core.Arg
	DAG      string
	DAGArgs  []core.FnArgs
}

// Spec parameterizes a pool run.
type Spec struct {
	Name     string        // labels the pool's processes
	Arrivals *Poisson      // seeded arrival process
	Window   time.Duration // stop generating after this offset
	// Next materializes the n'th request (n counts from 1). It is
	// called in arrival order, so seeded selectors used inside stay
	// deterministic.
	Next func(n int64) Invocation

	RetryAfter  time.Duration // re-issue a silent request after this long
	MaxAttempts int           // total sends per request before it counts Lost
	Drain       time.Duration // post-window grace for in-flight requests

	// Trace, when non-nil, must be the target cluster's collector: the
	// pool roots each request's trace at issue, records the result's
	// network hop and finishes the trace at delivery (its summary lands
	// in the collector's Summaries), records re-issues as retry spans,
	// and drops the traces of requests that end Lost. CPU-side only;
	// nil disables at zero cost.
	Trace *trace.Collector
}

// flight tracks one outstanding request.
type flight struct {
	ep      *simnet.Endpoint
	payload any
	size    int
	firstAt vtime.Time // latency is measured from the first send
	sentAt  vtime.Time
	attempt int
}

// Pool issues a Spec's request stream against a cluster.
type Pool struct {
	k       *vtime.Kernel
	route   Router
	spec    Spec
	eps     []*simnet.Endpoint
	disps   []*simnet.Dispatcher
	pending map[string]*flight
	rec     *Recorder
	seq     int64
}

// NewPool builds a pool over the given worker endpoints (one
// dispatcher each). The endpoints must be dedicated to the pool.
func NewPool(k *vtime.Kernel, route Router, eps []*simnet.Endpoint, spec Spec) *Pool {
	if len(eps) == 0 {
		panic("traffic: pool needs at least one endpoint")
	}
	if spec.MaxAttempts <= 0 {
		spec.MaxAttempts = 1
	}
	if spec.RetryAfter <= 0 {
		spec.RetryAfter = spec.Window + spec.Drain + time.Second
	}
	p := &Pool{k: k, route: route, spec: spec, eps: eps, pending: make(map[string]*flight)}
	for i, ep := range eps {
		d := simnet.NewDispatcher(ep, "traffic/"+spec.Name+"/w"+strconv.Itoa(i))
		simnet.OnMessage(d, func(m simnet.Message, res *core.Result) { p.deliver(res, m) })
		p.disps = append(p.disps, d)
	}
	return p
}

// Run generates the whole window, drains, and returns the recording.
// It must be called from a kernel process and blocks (in virtual time)
// until the window and drain complete.
func (p *Pool) Run() *Recorder {
	p.rec = NewRecorder(p.k)
	for _, d := range p.disps {
		d.Start()
	}
	reap := p.spec.RetryAfter / 2
	if reap <= 0 {
		reap = time.Second
	}
	p.disps[0].Every("reaper", reap, p.reapTick)

	start := p.k.Now()
	for {
		off := p.spec.Arrivals.Next()
		if off > p.spec.Window {
			break
		}
		due := start.Add(off)
		if d := due.Sub(p.k.Now()); d > 0 {
			p.k.Sleep(d)
		}
		p.issue()
	}

	deadline := start.Add(p.spec.Window + p.spec.Drain)
	for len(p.pending) > 0 && p.k.Now() < deadline {
		wait := deadline.Sub(p.k.Now())
		if wait > 50*time.Millisecond {
			wait = 50 * time.Millisecond
		}
		p.k.Sleep(wait)
	}
	var leftover []string
	for id := range p.pending {
		leftover = append(leftover, id)
	}
	sort.Strings(leftover)
	for _, id := range leftover {
		delete(p.pending, id)
		p.spec.Trace.Drop(id)
		p.rec.Lost++
	}
	for _, d := range p.disps {
		d.Stop()
	}
	return p.rec
}

// issue fires the next generated request at the current instant.
func (p *Pool) issue() {
	p.seq++
	ep := p.eps[int(p.seq)%len(p.eps)]
	reqID := string(ep.ID()) + "-t" + strconv.FormatInt(p.seq, 10)
	inv := p.spec.Next(p.seq)

	var payload any
	var size int
	if inv.DAG != "" {
		size = 128
		core.SortFnArgs(inv.DAGArgs)
		for _, fa := range inv.DAGArgs {
			size += core.ArgBytes(fa.Args)
		}
		payload = &scheduler.DAGInvokeReq{
			ReqID:     reqID,
			DAG:       inv.DAG,
			Args:      inv.DAGArgs,
			RespondTo: ep.ID(),
		}
	} else {
		size = 96 + core.ArgBytes(inv.Args)
		payload = &core.InvokeRequest{
			ReqID:     reqID,
			Function:  inv.Function,
			Args:      inv.Args,
			RespondTo: ep.ID(),
		}
	}

	now := p.k.Now()
	p.pending[reqID] = &flight{ep: ep, payload: payload, size: size, firstAt: now, sentAt: now, attempt: 1}
	p.rec.Issued++
	p.spec.Trace.Root(reqID, "invoke", now)
	ep.Send(p.route.RouteScheduler(reqID, 0), payload, size)
}

// deliver consumes a result; late duplicates from re-issued requests
// find no pending entry and are dropped.
func (p *Pool) deliver(res *core.Result, m simnet.Message) {
	f, ok := p.pending[res.ReqID]
	if !ok {
		return
	}
	delete(p.pending, res.ReqID)
	if ctx := p.spec.Trace.Attach(res.ReqID); ctx.Enabled() {
		ctx.Record("net/result", trace.Network, m.SentAt, m.ArrivedAt)
		p.spec.Trace.Finish(res.ReqID, p.k.Now())
	}
	p.rec.Observe(p.k.Now().Sub(f.firstAt), res.OK())
}

// reapTick re-issues requests silent past RetryAfter, walking the
// shard ranking, and gives up (Lost) once attempts are exhausted. The
// scan runs in sorted request order so the schedule is deterministic.
func (p *Pool) reapTick() {
	now := p.k.Now()
	var expired []string
	for id, f := range p.pending {
		if now.Sub(f.sentAt) >= p.spec.RetryAfter {
			expired = append(expired, id)
		}
	}
	sort.Strings(expired)
	for _, id := range expired {
		f := p.pending[id]
		if f.attempt >= p.spec.MaxAttempts {
			delete(p.pending, id)
			p.spec.Trace.Drop(id)
			p.rec.Lost++
			continue
		}
		f.attempt++
		f.sentAt = now
		p.spec.Trace.Reissue(id, now)
		f.ep.Send(p.route.RouteScheduler(id, f.attempt-1), f.payload, f.size)
	}
}
