package cloudburst

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/executor"
	"cloudburst/internal/lattice"
	"cloudburst/internal/scheduler"
	"cloudburst/internal/simnet"
	"cloudburst/internal/trace"
	"cloudburst/internal/vtime"
)

// Ref marks a function argument as a KVS reference: the runtime resolves
// it through the executor's co-located cache at invocation time, and the
// scheduler uses it for locality-aware placement (§3, §4.3).
type Ref string

// ErrTimedOut is returned when a call receives no response in time.
var ErrTimedOut = errors.New("cloudburst: request timed out")

// Client is an application's handle to the cluster, bound to its own
// network endpoint. Obtain one inside Cluster.Run/RunN. A Client must
// only be used from the goroutine it was handed to.
type Client struct {
	c    *Cluster
	ep   *simnet.Endpoint
	anna *anna.Client
	k    *vtime.Kernel
	seq  int64
	// vcTick makes client causal writes per-key monotonic.
	vcTick map[string]uint64
	// pending demultiplexes inbound core.Result messages onto their
	// futures by request ID.
	pending map[string]*Future
	// spans is the cluster's trace collector (nil = tracing off). The
	// client opens each request's root span at dispatch and closes it
	// when the terminal Result demuxes.
	spans *trace.Collector
	// Timeout bounds every synchronous operation (and is the default
	// wait bound for futures created without WithTimeout).
	Timeout time.Duration
}

func (c *Cluster) newClient() *Client {
	ep := c.in.NewClientEndpoint()
	return &Client{
		c:       c,
		ep:      ep,
		anna:    c.in.AnnaClientFor(ep),
		k:       c.in.K,
		vcTick:  make(map[string]uint64),
		pending: make(map[string]*Future),
		spans:   c.in.Trace,
		Timeout: 30 * time.Second,
	}
}

// Now returns the current virtual time.
func (cl *Client) Now() time.Duration { return time.Duration(cl.k.Now()) }

// Sleep pauses the client's process in virtual time.
func (cl *Client) Sleep(d time.Duration) { cl.k.Sleep(d) }

// Put stores a value in the KVS, encapsulating it in the lattice for the
// cluster's consistency mode (§5.2's lattice capsules: an LWW capsule by
// default, a causal capsule in the causal modes).
func (cl *Client) Put(key string, val any) error {
	payload, err := codec.Encode(val)
	if err != nil {
		return err
	}
	var lat lattice.Lattice
	if cl.c.in.Mode().Causal() {
		cl.vcTick[key]++
		vc := lattice.VectorClock{string(cl.ep.ID()): cl.vcTick[key]}
		lat = lattice.NewCausal(vc, nil, payload)
	} else {
		lat = lattice.NewLWW(lattice.Timestamp{Clock: int64(cl.k.Now()), Node: lattice.NodeHash(string(cl.ep.ID()))}, payload)
	}
	return cl.anna.Put(key, lat)
}

// Get fetches a key directly from the KVS and de-encapsulates it.
func (cl *Client) Get(key string) (val any, found bool, err error) {
	lat, found, err := cl.anna.Get(key)
	if err != nil || !found {
		return nil, found, err
	}
	v, err := cl.decodeCapsule(lat)
	if err != nil {
		return nil, true, err
	}
	return v, true, nil
}

// capsulePayload unwraps a lattice capsule to the stored payload.
func capsulePayload(lat lattice.Lattice) ([]byte, error) {
	var p []byte
	switch l := lat.(type) {
	case *lattice.LWW:
		p = l.Value
	case *lattice.Causal:
		p = l.DisplayValue()
	default:
		return nil, fmt.Errorf("cloudburst: unexpected capsule %s", lat.TypeName())
	}
	_, inner := executor.Untag(p)
	return inner, nil
}

// decodeCapsule unwraps and decodes a capsule to the stored value.
func (cl *Client) decodeCapsule(lat lattice.Lattice) (any, error) {
	payload, err := capsulePayload(lat)
	if err != nil {
		return nil, err
	}
	return codec.Decode(payload)
}

// encodeArgs converts call arguments to wire form; Ref arguments become
// KVS references.
func (cl *Client) encodeArgs(args []any) ([]core.Arg, error) {
	out := make([]core.Arg, len(args))
	for i, a := range args {
		if r, ok := a.(Ref); ok {
			out[i] = core.Arg{Ref: string(r)}
			continue
		}
		b, err := codec.Encode(a)
		if err != nil {
			return nil, err
		}
		out[i] = core.Arg{Val: b}
	}
	return out, nil
}

// resultSuffix ends every request's result key: Future.Key is the
// request id followed by it.
const resultSuffix = "-result"

// nextReq names the next request: its id, and the Future.Key its result
// is stored under. Both come from one exact-size allocation, the key, the
// id being its prefix: it is built in buf, on the stack (a "client-N" id,
// the number and the suffix fit), and copied out once.
func (cl *Client) nextReq() (reqID, key string) {
	cl.seq++
	var buf [64]byte
	b := append(append(buf[:0], cl.ep.ID()...), "-r"...)
	key = string(append(strconv.AppendInt(b, cl.seq, 10), resultSuffix...))
	return key[:len(key)-len(resultSuffix)], key
}

// InvokeOption configures one invocation — the options-driven
// equivalent of Figure 2's keyword arguments.
type InvokeOption func(*callOpts)

type callOpts struct {
	timeout  time.Duration // wait bound for the future; 0 → Client.Timeout
	store    bool          // persist the result in the KVS under the future's Key
	wantHops bool          // ask the runtime to report executor hop counts
	txn      bool          // commit the request's writes atomically (Transactional mode)
}

func buildOpts(opts []InvokeOption) callOpts {
	if len(opts) == 0 {
		return callOpts{} // o below escapes through opt to the heap
	}
	var o callOpts
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithTimeout bounds how long the returned future's Wait blocks (in
// virtual time) before returning ErrTimedOut. Futures created without
// it use the client's Timeout field.
//
// The timeout also has a wire presence, for DAGs and single-function
// invocations alike: it is carried as the request's Deadline, and when
// it is shorter than the scheduler's global DAGTimeout it drives the
// §4.5 re-execution timer for this request, so an impatient caller's
// request is retried on fresh executors on the caller's schedule (a
// patient timeout never delays recovery).
func WithTimeout(d time.Duration) InvokeOption { return func(o *callOpts) { o.timeout = d } }

// WithStoreInKVS persists the result in the KVS under the future's Key
// (Figure 2's store_in_kvs=True): the future resolves by reading that
// key once the completion notice arrives, and any client can Get the
// key directly.
func WithStoreInKVS() InvokeOption { return func(o *callOpts) { o.store = true } }

// WithHopCount asks the runtime to report the executor hop count,
// exposed afterwards by Future.Hops (the per-depth latency
// normalization of Figure 8).
func WithHopCount() InvokeOption { return func(o *callOpts) { o.wantHops = true } }

// WithTxn makes the invocation transactional: every Put the request
// performs (across all of a DAG's functions) is buffered at the
// executors and committed atomically via two-phase commit when the
// request finishes — all writes become visible together, or none do.
// Reads validate at commit, so a conflicting concurrent update aborts
// the transaction (the future fails with a "txn aborted" error; retry
// at the application level). Requires the Transactional consistency
// mode; under any other mode the future fails.
func WithTxn() InvokeOption { return func(o *callOpts) { o.txn = true } }

// Invoke dispatches a single registered function through a
// load-balanced scheduler and immediately returns its Future.
// Arguments may be plain values or Refs. Every error — argument
// encoding, execution, timeout — surfaces on the future, so calls
// compose without intermediate error plumbing (Batch, All, As).
func (cl *Client) Invoke(fn string, args []any, opts ...InvokeOption) *Future {
	o := buildOpts(opts)
	wireArgs, err := cl.encodeArgs(args)
	if err != nil {
		return cl.failedFuture(err)
	}
	reqID, key := cl.nextReq()
	// The future and its request are one allocation; the first send and
	// the future's re-route share the request, which nothing writes.
	call := &struct {
		f   Future
		req core.InvokeRequest
	}{req: core.InvokeRequest{
		ReqID:      reqID,
		Function:   fn,
		Args:       wireArgs,
		RespondTo:  cl.ep.ID(),
		StoreInKVS: o.store,
		WantHops:   o.wantHops,
		Txn:        o.txn,
		ResultKey:  key,
		Deadline:   o.timeout,
	}}
	cl.spans.Root(reqID, "invoke", cl.k.Now())
	return cl.send(&call.f, reqID, key, o, &call.req, 96+core.ArgBytes(wireArgs))
}

// InvokeDAG dispatches a registered DAG and immediately returns its
// Future. args supplies each function's client-provided arguments by
// function name; upstream results are appended automatically by the
// runtime.
func (cl *Client) InvokeDAG(dagName string, args map[string][]any, opts ...InvokeOption) *Future {
	o := buildOpts(opts)
	// Encoded in function-name order, so a request with several
	// unencodable arguments always fails on the same one.
	wire := make([]core.FnArgs, 0, len(args))
	for fn := range args {
		wire = append(wire, core.FnArgs{Fn: fn})
	}
	core.SortFnArgs(wire)
	size := 128
	for i := range wire {
		ea, err := cl.encodeArgs(args[wire[i].Fn])
		if err != nil {
			return cl.failedFuture(err)
		}
		wire[i].Args, size = ea, size+core.ArgBytes(ea)
	}
	reqID, key := cl.nextReq()
	call := &struct {
		f   Future
		req scheduler.DAGInvokeReq
	}{req: scheduler.DAGInvokeReq{
		ReqID:      reqID,
		DAG:        dagName,
		Args:       wire,
		RespondTo:  cl.ep.ID(),
		StoreInKVS: o.store,
		WantHops:   o.wantHops,
		Txn:        o.txn,
		ResultKey:  key,
		Deadline:   o.timeout,
	}}
	cl.spans.Root(reqID, "invoke-dag", cl.k.Now())
	return cl.send(&call.f, reqID, key, o, &call.req, size)
}

// Invocation describes one entry in a Batch: a function call (Function
// and Args) or, when DAG is set, a DAG call (DAG and DAGArgs). Opts
// apply to that entry only.
type Invocation struct {
	Function string
	Args     []any
	DAG      string
	DAGArgs  map[string][]any
	Opts     []InvokeOption
}

// Batch dispatches every invocation before waiting on any of them,
// pipelining N concurrent requests over the client's one endpoint.
// Combine with All for fan-in:
//
//	futs := cl.Batch(invs)
//	vals, err := cloudburst.All(futs...)
func (cl *Client) Batch(invs []Invocation) []*Future {
	out := make([]*Future, len(invs))
	for i, inv := range invs {
		if inv.DAG != "" {
			out[i] = cl.InvokeDAG(inv.DAG, inv.DAGArgs, inv.Opts...)
		} else {
			out[i] = cl.Invoke(inv.Function, inv.Args, inv.Opts...)
		}
	}
	return out
}

// send fills in and tracks f, the future of request reqID, and sends req,
// the request allocated with it, to the request's scheduler.
func (cl *Client) send(f *Future, reqID, key string, o callOpts, req any, size int) *Future {
	*f = Future{cl: cl, reqID: reqID, Key: key, store: o.store, timeout: o.timeout, resend: req, resendSize: size}
	cl.pending[reqID] = f
	cl.ep.Send(cl.c.in.RouteScheduler(reqID, 0), req, size)
	return f
}

// failedFuture wraps a dispatch-time error as an already-completed
// future.
func (cl *Client) failedFuture(err error) *Future {
	return &Future{cl: cl, done: true, err: err}
}

// drain demultiplexes every already-delivered message without blocking.
func (cl *Client) drain() {
	for {
		m, ok := cl.ep.TryRecv()
		if !ok {
			return
		}
		cl.demux(m)
	}
}

// demux routes one inbound message; non-Result payloads are dropped.
func (cl *Client) demux(m simnet.Message) {
	if res, ok := m.Payload.(*core.Result); ok {
		cl.deliver(res, m)
	}
}

// deliver completes the pending future matching a Result. Duplicate or
// stale results — a re-executed DAG's second sink reply, a late
// scheduler failure notice after success — find no pending future and
// are dropped.
func (cl *Client) deliver(res *core.Result, m simnet.Message) {
	f, ok := cl.pending[res.ReqID]
	if !ok {
		return
	}
	// Every branch below is terminal for the request, so close the trace
	// here: the result's flight is the last network span, and the root
	// ends at delivery.
	if ctx := cl.spans.Attach(res.ReqID); ctx.Enabled() {
		ctx.Record("net/result", trace.Network, m.SentAt, m.ArrivedAt)
		cl.spans.Finish(res.ReqID, cl.k.Now())
	}
	if res.Hops > f.hops {
		f.hops = res.Hops
	}
	if !res.OK() {
		f.fail(errors.New(res.Err))
		return
	}
	if res.Val != nil {
		v, err := cl.decodeResult(res)
		f.complete(v, err)
		return
	}
	if res.ResultKey != "" && f.store {
		// The value was persisted instead of carried inline: the future
		// resolves from the KVS (Wait polls it from here on). No
		// further message matters for this request, so stop tracking it —
		// a re-executed DAG's duplicate reply or a late failure notice
		// after this success must not overwrite the outcome.
		f.notified = true
		delete(cl.pending, f.reqID)
		return
	}
	f.complete(nil, nil)
}

// decodeResult unwraps a successful Result's payload.
func (cl *Client) decodeResult(res *core.Result) (any, error) {
	if !res.OK() {
		return nil, errors.New(res.Err)
	}
	if res.Val == nil {
		return nil, nil
	}
	_, inner := executor.Untag(res.Val)
	return codec.Decode(inner)
}

// Kernel exposes the virtual-time kernel for in-simulation helpers.
func (cl *Client) Kernel() *vtime.Kernel { return cl.k }
