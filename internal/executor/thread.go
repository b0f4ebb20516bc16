package executor

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/cache"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/dag"
	"cloudburst/internal/hook"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/trace"
	"cloudburst/internal/txn"
	"cloudburst/internal/vtime"
)

// invokeOverhead is the per-invocation dispatch cost: the Python
// interpreter's function lookup and deserialization work in the paper's
// executor. ~0.8ms calibrates Figure 1's Cloudburst bar against Dask's.
const invokeOverhead = 800 * time.Microsecond

// Thread is one executor worker: an independent long-running process
// with its own network address, serving one invocation at a time (§4.1).
// Inbound traffic dispatches through a serial simnet.Dispatcher; messages
// the thread drains off its endpoint mid-invocation are re-injected for
// ordinary dispatch afterwards. Because one invocation runs at a time, a
// session that ends with its invocation is the thread's own (session),
// emptied for the next once the invocation completes.
type Thread struct {
	id          simnet.NodeID
	ep          *simnet.Endpoint
	k           *vtime.Kernel
	vm          string
	cache       *cache.Cache
	annaClient  *anna.Client
	registry    *Registry
	tracer      Tracer
	spans       *trace.Collector // latency tracing; distinct from the consistency audit's tracer
	alive       func(simnet.NodeID) bool
	dagFor      func(name string) (*dag.DAG, bool)
	disp        *simnet.Dispatcher
	resolveName string // precomputed process name for parallel arg reads
	hooks       *hook.Registry
	txnCoord    *txn.Coordinator

	pinned  map[string]bool
	mailbox []core.DirectMessage
	seq     int64

	// errScratch, refScratch, keyScratch, and wg are resolveArgs working
	// storage, reused across invocations (a thread runs one invocation at
	// a time, and the WaitGroup is idle again once Wait returns).
	errScratch  []error
	refScratch  []int
	keyScratch  []string
	wg          *vtime.WaitGroup
	doneScratch []simnet.NodeID // complete's list of caches to notify
	// call is the invocation resolveArgs is serving, and readers its
	// parallel reads, one reusable slot per reference: the processes they
	// run read the call from here, so a read spawns no closure.
	call    resolveCall
	readers []refReader
	// ctx and args are the running invocation's Ctx and resolved
	// arguments: both belong to the call (Function), and invoke clears
	// both once the result is encoded.
	ctx  Ctx
	args []any

	// session is the thread's own session (§5.3): a bare invocation's
	// under DSRR, DSC or MK, and an MK DAG function's. A DSRR or DSC DAG
	// session rides the triggers downstream and is the request's.
	session core.SessionMeta

	// decoded is the cluster's decode cache, through which reads decode
	// their payloads (decodeVersioned).
	decoded *core.DecodeCache

	// Metrics window (§4.1: executors publish utilization, cached
	// functions, and execution latencies). busy is also the window's
	// latency sum: a thread runs one invocation at a time, so its busy
	// time is the sum of their latencies.
	busy        time.Duration
	windowStart vtime.Time
	completed   int64
	latencyN    int64
}

// Deps bundles a thread's environment, supplied by the cluster.
type Deps struct {
	Cache    *cache.Cache
	Anna     *anna.Client
	Registry *Registry
	Tracer   Tracer
	// Alive reports whether a peer executor thread is reachable; nil
	// means always reachable.
	Alive func(simnet.NodeID) bool
	// DAGFor resolves a registered DAG's topology (from the local
	// schedule cache or Anna).
	DAGFor func(name string) (*dag.DAG, bool)
	// Trace, when non-nil, records per-request latency spans (queue,
	// overhead, argument resolution, compute) into the cluster's
	// collector. CPU-side only; nil disables at zero cost.
	Trace *trace.Collector
	// Hooks is the cluster's fault-injection point-cut registry (nil
	// disables point-cuts at zero cost).
	Hooks *hook.Registry
	// TxnRing resolves key ownership for the thread's 2PC coordinator;
	// nil disables transactional invocations on this thread.
	TxnRing txn.Router
	// Decoded is the cluster's decode cache, shared by every thread and
	// the control plane, so a version read anywhere in the cluster is
	// decoded once; nil gives the thread a private one.
	Decoded *core.DecodeCache
}

// NewThread creates a worker bound to ep.
func NewThread(k *vtime.Kernel, ep *simnet.Endpoint, vm string, d Deps) *Thread {
	t := &Thread{
		id:          ep.ID(),
		ep:          ep,
		k:           k,
		vm:          vm,
		cache:       d.Cache,
		annaClient:  d.Anna,
		registry:    d.Registry,
		tracer:      d.Tracer,
		spans:       d.Trace,
		alive:       d.Alive,
		dagFor:      d.DAGFor,
		resolveName: string(ep.ID()) + "/resolve",
		pinned:      make(map[string]bool),
		wg:          vtime.NewWaitGroup(k),
		decoded:     d.Decoded,
		windowStart: k.Now(),
		hooks:       d.Hooks,
	}
	if t.decoded == nil {
		t.decoded = core.NewDecodeCache()
	}
	if d.TxnRing != nil {
		t.txnCoord = &txn.Coordinator{K: k, EP: ep, Ring: d.TxnRing, KV: d.Anna, Hooks: d.Hooks, Entity: vm}
	}
	t.disp = simnet.NewDispatcher(ep, string(t.id))
	simnet.OnMessage(t.disp, func(m simnet.Message, b *core.InvokeRequest) {
		t.recordArrival(b.ReqID, m)
		t.runSingle(b, m.From)
	})
	simnet.OnMessage(t.disp, func(m simnet.Message, b *core.DAGTrigger) {
		t.recordArrival(b.Schedule.ReqID, m)
		t.runTrigger(b)
	})
	simnet.OnMessage(t.disp, func(_ simnet.Message, b core.DirectMessage) {
		t.mailbox = append(t.mailbox, b)
	})
	simnet.OnMessage(t.disp, func(_ simnet.Message, b core.PinFunction) { t.pin(b.Function) })
	simnet.OnMessage(t.disp, func(_ simnet.Message, b core.UnpinFunction) {
		delete(t.pinned, b.Function)
	})
	return t
}

// ID returns the thread's network id (also its vector-clock writer id).
func (t *Thread) ID() simnet.NodeID { return t.id }

// Pinned lists the functions pinned here, sorted.
func (t *Thread) Pinned() []string {
	out := make([]string, 0, len(t.pinned))
	for f := range t.pinned {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Completed reports lifetime finished invocations.
func (t *Thread) Completed() int64 { return t.completed }

// Start launches the worker's dispatcher.
func (t *Thread) Start() { t.k.Go(string(t.id)+"/worker", t.disp.Serve) }

// Stop makes the worker exit after the current message.
func (t *Thread) Stop() { t.disp.Stop() }

// recordArrival charges a just-dequeued work message's flight and inbox
// wait to the request's trace: [SentAt, ArrivedAt] is simulated network
// time, [ArrivedAt, now] is how long this serial worker's inbox held it
// while an earlier invocation ran.
func (t *Thread) recordArrival(reqID string, m simnet.Message) {
	ctx := t.spans.Attach(reqID)
	if !ctx.Enabled() {
		return
	}
	ctx.Record("net/exec", trace.Network, m.SentAt, m.ArrivedAt)
	ctx.Record("exec/queue", trace.Queue, m.ArrivedAt, t.k.Now())
}

// drainNetwork moves queued endpoint messages into the right buckets
// without blocking; direct messages become mailbox entries, everything
// else is re-injected into the dispatcher for ordinary handling. Called
// from Ctx.Recv while a function is executing.
func (t *Thread) drainNetwork() {
	for {
		m, ok := t.ep.TryRecv()
		if !ok {
			return
		}
		if dm, isDM := m.Payload.(core.DirectMessage); isDM {
			t.mailbox = append(t.mailbox, dm)
		} else {
			t.disp.Inject(m)
		}
	}
}

// pin loads a function replica onto this thread: metadata is fetched
// from Anna (the deserialize-and-cache step of §4.1).
func (t *Thread) pin(fn string) {
	if t.pinned[fn] {
		return
	}
	t.annaClient.Get(core.FuncKey(fn)) // pay the code/metadata fetch
	t.pinned[fn] = true
}

// newCtx fills in the thread's Ctx for an invocation; invoke zeroes it on
// return. Every invocation takes the thread's next sequence number;
// Ctx.ID spells it out on first use.
func (t *Thread) newCtx(reqID, fn string, meta *core.SessionMeta, tx *txnState) *Ctx {
	t.seq++
	t.ctx = Ctx{t: t, req: reqID, fn: fn, seq: t.seq, meta: meta, txn: tx}
	return &t.ctx
}

// resolveCall is the invocation whose arguments resolveArgs is reading.
type resolveCall struct {
	reqID, fn string
	args      []core.Arg
	meta      *core.SessionMeta
	out       []any
}

// refReader is one parallel argument read, a kernel-process body
// (vtime.Runner) reused across invocations: it reads argument i of the
// thread's current call; hopRefs slept a hopped read's hop and opened rctx.
type refReader struct {
	t      *Thread
	i      int
	hopped bool
	rctx   trace.Ctx
}

func (r *refReader) Run() {
	defer r.t.wg.Done()
	r.t.readRef(r)
}

// resolveArgs turns wire arguments into Go values, fetching KVS
// references through the cache in parallel (§4.1), and appends the
// decoded upstream result (input, nil for none) after them, in the
// thread's argument slice. Its capacity ends at the last argument, so a
// function that appends to it copies rather than writing into the
// thread's storage.
func (t *Thread) resolveArgs(reqID, fn string, args []core.Arg, input []byte, meta *core.SessionMeta) ([]any, error) {
	n := len(args)
	if input != nil {
		n++
	}
	if len(t.args) < n {
		t.args = make([]any, n)
	}
	out := t.args[:n:n]
	if input != nil {
		v, err := codec.Decode(input)
		if err != nil {
			return nil, err
		}
		out[len(args)] = v
	}
	errs := t.errScratch[:0]
	for range args {
		errs = append(errs, nil)
	}
	t.errScratch = errs
	refIdx := t.refScratch[:0]
	for i, a := range args {
		if a.IsRef() {
			refIdx = append(refIdx, i)
			continue
		}
		v, err := codec.Decode(a.Val)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	t.refScratch = refIdx
	// Warm-fill the cache for the whole reference list in one grouped
	// Anna multi-get before the per-key protocol reads: a cold cache pays
	// one round trip per storage node instead of one per key (§4.2's
	// fan-out collapse; the per-key Read below then hits locally). A warm
	// cache fetches nothing and takes no time, so it records no span.
	if len(refIdx) > 1 {
		keys := t.keyScratch[:0]
		for _, i := range refIdx {
			keys = append(keys, args[i].Ref)
		}
		t.keyScratch = keys
		p0 := t.k.Now()
		t.cache.Prefetch(keys)
		if now := t.k.Now(); now > p0 {
			t.spans.Attach(reqID).Record("exec/prefetch", trace.KVS, p0, now)
		}
	}
	t.call = resolveCall{reqID: reqID, fn: fn, args: args, meta: meta, out: out}
	rs := slices.Grow(t.readers[:0], len(refIdx))[:len(refIdx)]
	t.readers = rs
	for j, i := range refIdx {
		rs[j] = refReader{t: t, i: i}
	}
	switch m := t.cache.Mode(); {
	case len(rs) == 1:
		t.readRef(&rs[0])
	case len(rs) > 1 && (m == core.LWW || m == core.TXN):
		t.hopRefs(rs)
	case len(rs) > 1:
		// A causal or session hit can block (on the causal cut, an
		// upstream snapshot), so there every reference hops on its own.
		t.readAll(rs)
	}
	t.call = resolveCall{}
	for _, i := range refIdx {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return out, nil
}

// readAll reads rs on a process each, started in order, and waits.
func (t *Thread) readAll(rs []refReader) {
	for j := range rs {
		t.wg.Add(1)
		t.k.GoRunner(t.resolveName, &rs[j])
	}
	t.wg.Wait()
}

// hopRefs reads rs, two or more LWW references, after one IPC hop, not
// one per readAll reader. Those ran back to back, so their hop timers
// fired at one instant with nothing between them: a resident LWW read
// blocks on nothing and wakes nothing. Yielding takes the first reader's
// run-queue place, so every event keeps its (when, seq) order, span and
// random draw. From the first key no longer resident, readers go on.
func (t *Thread) hopRefs(rs []refReader) {
	if t.k.Runnable() {
		t.k.YieldNow() // what runs first may set timers for the hop's instant
	}
	for j := range rs {
		rs[j].hopped = true // Cache.Read's span, opened as its hop starts
		rs[j].rctx = t.spans.Attach(t.call.reqID).Start("cache/read", trace.Cache, t.k.Now())
	}
	t.k.Sleep(t.cache.IPC())
	for j := range rs {
		if !t.cache.Contains(t.call.args[rs[j].i].Ref) {
			t.readAll(rs[j:])
			return
		}
		t.readRef(&rs[j])
	}
}

// readRef reads r's argument of the current call, a KVS reference,
// through the cache into the call's output, or its error into
// errScratch.
func (t *Thread) readRef(r *refReader) {
	c, i := &t.call, r.i
	key := c.args[i].Ref
	var payload []byte
	var ver core.VersionRef
	var err error
	if r.hopped {
		payload, ver, err = t.cache.ReadHopped(r.rctx, c.reqID, key, c.meta)
	} else {
		payload, ver, err = t.cache.Read(c.reqID, key, c.meta)
	}
	if err != nil {
		t.errScratch[i] = err
		return
	}
	writeID, inner := untag(payload)
	if t.tracer != nil {
		t.tracer.OnRead(TraceEvent{
			ReqID: c.reqID, Function: c.fn, Key: key, WriteID: writeID, Ver: ver,
		})
	}
	v, err := t.decodeVersioned(key, ver, inner)
	if err != nil {
		t.errScratch[i] = err
		return
	}
	c.out[i] = v
}

// decodeVersioned decodes a read payload through the cluster's decode
// cache when the version names its payload: by timestamp (the LWW modes)
// or by capsule digest (the causal modes). A DAG that reads one capsule
// at every hop, or threads on many VMs reading one hot key, decode it
// once. Tracing has already happened at the call sites; the cache only
// skips repeated decode work, never protocol effects.
func (t *Thread) decodeVersioned(key string, ver core.VersionRef, payload []byte) (any, error) {
	switch {
	case ver.VC.Len() != 0:
		if ver.VCD == 0 {
			return codec.Decode(payload) // no capsule digest: not memoizable
		}
		return t.decoded.DecodeVersion(key, lattice.Timestamp{}, ver.VCD, payload)
	case ver.TS != (lattice.Timestamp{}):
		return t.decoded.DecodeVersion(key, ver.TS, 0, payload)
	}
	return codec.Decode(payload)
}

// runSingle serves a bare invocation as the DAG of one node it is (§3):
// make the session metadata, invoke, complete.
func (t *Thread) runSingle(req *core.InvokeRequest, scheduler simnet.NodeID) {
	// The one-node schedule never leaves this frame, so it costs no
	// allocation; its empty DAG name marks the request as a bare invoke.
	s := core.DAGSchedule{
		ReqID:      req.ReqID,
		RespondTo:  req.RespondTo,
		Scheduler:  scheduler,
		StoreInKVS: req.StoreInKVS,
		WantHops:   req.WantHops,
		Txn:        req.Txn,
		ResultKey:  req.ResultKey,
	}
	// Session metadata only exists in the session/bolt-on modes; LWW and
	// SK reads ignore it. A bare invocation's session ends with it, so it
	// is the thread's own.
	var metaP *core.SessionMeta
	switch t.cache.Mode() {
	case core.DSRR, core.DSC, core.MK:
		metaP = t.ownSession()
		defer t.endSession()
	}
	payload, invID, tx, err := t.invoke(&s, req.Function, req.Args, nil, metaP, nil)
	t.complete(&s, req.Function, metaP, 1, tx, invID, payload, err)
}

// runTrigger serves a DAG trigger: it runs function Target and then each
// following function the schedule assigns to this thread too, in place,
// with no message between them, until the next function is another
// thread's (it sends that one its trigger) or the request ends. Each
// function is one hop, served to its end, sessions included, before the
// next starts.
func (t *Thread) runTrigger(tr *core.DAGTrigger) {
	s := tr.Schedule
	d, ok := t.dagFor(s.DAG)
	if !ok || len(d.Functions) != len(s.Assignments) { // or a topology the schedule was not built from
		t.complete(s, "", &tr.Meta, tr.Hops+1, nil, "", nil, fmt.Errorf("executor: unknown DAG %q", s.DAG))
		return
	}
	for {
		if tr = t.runHop(d, tr); tr == nil {
			return
		}
		if next := s.Assignments[tr.Target]; next != t.id {
			t.ep.Send(next, tr, 96+len(tr.Input)+tr.Meta.Size()+core.TxnWritesSize(tr.TxnWrites))
			return
		}
	}
}

// runHop serves one DAG hop of d: execute function Target, then return
// the trigger of function Target+1 with its result or, at the last
// function, complete the request and return nil. It never writes tr; tr's
// session maps pass to this hop.
func (t *Thread) runHop(d *dag.DAG, tr *core.DAGTrigger) *core.DAGTrigger {
	s := tr.Schedule
	fn := d.Functions[tr.Target]
	hops := tr.Hops + 1
	// Session metadata propagates along the DAG only in the distributed
	// session modes; bolt-on (MK) tracks a per-function session and the
	// other modes carry none (§5.3, §6.2), so their triggers hold the zero
	// SessionMeta and nothing here allocates one for them.
	mode := t.cache.Mode()
	session := mode == core.DSRR || mode == core.DSC
	var metaP *core.SessionMeta
	switch {
	case session:
		m := tr.Meta
		if m.ReadSet == nil {
			m = core.NewSessionMeta() // function 0: the scheduler's trigger carries none
		}
		metaP = &m
	case mode == core.MK: // the function's own session, ending with it
		metaP = t.ownSession()
		defer t.endSession()
	}

	payload, invID, tx, err := t.invoke(s, fn, core.ArgsFor(s.Args, fn), tr.Input, metaP, tr.TxnWrites)
	next := tr.Target + 1
	if err != nil || next == len(d.Functions) {
		t.complete(s, fn, metaP, hops, tx, invID, payload, err)
		return nil
	}
	var outWrites []core.TxnWrite
	if tx != nil {
		// The buffered write set rides the trigger downstream; the last
		// function's coordinator commits it once.
		outWrites = tx.items()
	}
	var outMeta core.SessionMeta
	if session {
		outMeta = *metaP
	}
	return &core.DAGTrigger{
		Schedule:  s,
		Target:    next,
		Input:     payload,
		Meta:      outMeta,
		Hops:      hops,
		TxnWrites: outWrites,
	}
}

// sessionKeep is the most keys (read set and dependencies together) a
// finished session may have held and still have its maps kept for the
// thread's next one. 97% of causal-rw's sessions end with at most 64; a
// post fanned out to many followers reads up to ~350. At 256 rather
// than 64, causal-rw (seed 1) allocated 2.6% fewer bytes for 1.4% more
// live heap; a larger session is dropped.
const sessionKeep = 256

// ownSession returns the thread's own session metadata, empty, for an
// invocation whose session ends with it.
func (t *Thread) ownSession() *core.SessionMeta {
	if t.session.ReadSet == nil {
		t.session = core.NewSessionMeta()
	}
	return &t.session
}

// endSession empties the thread's own session once its invocation has
// completed, so the next invocation's starts empty in the same storage.
func (t *Thread) endSession() {
	s := &t.session
	if len(s.ReadSet)+len(s.Deps) > sessionKeep {
		*s = core.SessionMeta{}
		return
	}
	clear(s.ReadSet)
	clear(s.Deps)
	clear(s.Caches)
}

// complete is the one way a request ends on an executor, whatever its
// kind and outcome: a value (committed first when transactional, stored
// when asked) or an error — the function's, an encoding failure, a
// transaction abort, a malformed request. It replies to the client, tells
// the caches the request touched to evict its version snapshots
// (Algorithm 1's cleanup), and tells the tracking scheduler the request
// is over, so §4.5 never re-executes a request whose client has its
// answer. Only a VM crash mid-commit leaves without a word. metaP is the
// session the function ran under (nil in the modes that keep none).
func (t *Thread) complete(s *core.DAGSchedule, fn string, metaP *core.SessionMeta, hops int, tx *txnState, invID string, payload []byte, err error) {
	if err == nil && tx != nil {
		payload, err = t.commitTxn(s.ReqID, fn, invID, tx, payload)
		if err == txn.ErrCrashed {
			return // VM died mid-commit; the scheduler's §4.5 tracking re-executes
		}
	}
	// What the request's end sends, in one allocation that nothing writes
	// once it is sent: every cache gets the same DAGDone.
	out := &struct {
		res  core.Result
		done core.DAGDone
		rc   core.RequestComplete
	}{res: core.Result{ReqID: s.ReqID}, done: core.DAGDone{ReqID: s.ReqID}, rc: core.RequestComplete{ReqID: s.ReqID}}
	res := &out.res
	if s.WantHops {
		res.Hops = hops
	}
	if err == nil && s.StoreInKVS {
		if _, err = t.cache.Write(s.ReqID, s.ResultKey, payload, metaP, string(t.id)); err == nil {
			res.ResultKey, payload = s.ResultKey, nil
		}
	}
	size := 48 + len(payload)
	if err != nil {
		res.Err, size = err.Error(), 64
	} else {
		res.Val = payload
	}
	t.ep.Send(s.RespondTo, res, size)

	// A DAG's sink notifies its own cache in every mode; a bare invocation
	// can only have left snapshots where the mode takes them.
	mode := t.cache.Mode()
	if s.DAG != "" || mode == core.DSRR || mode == core.DSC {
		ids := append(t.doneScratch[:0], t.cache.ID())
		if metaP != nil {
			for c := range metaP.Caches {
				if c != t.cache.ID() {
					ids = append(ids, c)
				}
			}
		}
		slices.Sort(ids)
		for _, c := range ids {
			t.ep.Send(c, &out.done, 24)
		}
		t.doneScratch = ids
	}
	if s.Scheduler != "" {
		t.ep.Send(s.Scheduler, &out.rc, 32)
	}
}

// TxnMarker is an optional Tracer extension: an audit recorder that
// implements it learns which requests committed transactionally, so the
// write-atomicity and serializability detectors scope themselves to
// transactional history and leave every existing fixture untouched.
type TxnMarker interface {
	OnTxnCommit(reqID string)
}

// commitTxn runs two-phase commit for a transactional request's
// buffered writes and returns the result payload the client should see
// — the freshly supplied one, or the recorded one when the coordinator
// log shows a previous attempt already committed (§4.5 re-execution
// must not commit twice). txn.ErrCrashed means the VM died at an armed
// crash point: send nothing; recovery owns the request now. Other
// errors are aborts, reported to the client as the Result error.
func (t *Thread) commitTxn(reqID, fn, txnID string, tx *txnState, payload []byte) ([]byte, error) {
	items := tx.items()
	recorded, err := t.txnCoord.Commit(reqID, txnID, items, payload)
	if err != nil {
		return nil, err
	}
	if recorded != nil {
		return recorded, nil
	}
	// Fresh commit: only now do the staged writes exist anywhere a
	// reader could see them, so only now do they enter the audit.
	if t.tracer != nil {
		if tm, ok := t.tracer.(TxnMarker); ok {
			tm.OnTxnCommit(reqID)
		}
		for _, it := range items {
			if it.ReadOnly {
				continue
			}
			writeID, _ := untag(it.Payload)
			t.tracer.OnWrite(TraceEvent{ReqID: reqID, Function: fn, Key: it.Key, WriteID: writeID})
		}
	}
	return payload, nil
}

// invoke runs one function of request s: it opens the write buffer when
// the request is transactional (seeded with what upstream functions
// buffered), resolves arguments, looks up the body, runs it, and encodes
// its result, charging the time to the metrics window. It returns the
// invocation's id only to a transaction, whose commit is named by it.
// The whole invocation is one Compute span; the overhead sleep and the
// cache's own read spans open later and so shadow it for their windows
// (the analyzer's stack semantics), leaving the body's remainder as
// compute.
func (t *Thread) invoke(s *core.DAGSchedule, fn string, args []core.Arg, input []byte, meta *core.SessionMeta, upstream []core.TxnWrite) ([]byte, string, *txnState, error) {
	var tx *txnState
	if s.Txn {
		if t.cache.Mode() != core.TXN || t.txnCoord == nil {
			return nil, "", nil, errors.New("executor: WithTxn requires the Transactional consistency mode")
		}
		tx = newTxnState()
		tx.seed(upstream)
	}
	reqID, start := s.ReqID, t.k.Now()
	ictx := t.spans.Attach(reqID).Start("exec/invoke", trace.Compute, start)
	defer func() {
		clear(t.args) // the decoded arguments and the Ctx die with the call
		t.ctx = Ctx{}
		ictx.End(t.k.Now())
		t.finish(start)
	}()
	body, ok := t.registry.Lookup(fn)
	if !ok {
		return nil, "", tx, fmt.Errorf("executor: function %q not registered", fn)
	}
	o0 := t.k.Now()
	t.k.Sleep(invokeOverhead)
	ictx.Record("exec/overhead", trace.Dispatch, o0, t.k.Now())
	resolved, err := t.resolveArgs(reqID, fn, args, input, meta)
	if err != nil {
		return nil, "", tx, fnError(fn, err)
	}
	ctx := t.newCtx(reqID, fn, meta, tx)
	invID := ""
	if tx != nil {
		invID = ctx.ID()
	}
	out, err := body(ctx, resolved)
	if err != nil {
		return nil, invID, tx, fnError(fn, err)
	}
	payload, err := codec.Encode(out)
	return payload, invID, tx, err
}

// finish updates the metrics window after an invocation.
func (t *Thread) finish(start vtime.Time) {
	d := t.k.Now().Sub(start)
	t.busy += d
	t.latencyN++
	t.completed++
}

// MetricsSnapshot builds the thread's report and resets the window.
func (t *Thread) MetricsSnapshot() core.ExecutorMetrics {
	elapsed := t.k.Now().Sub(t.windowStart)
	util := 0.0
	if elapsed > 0 {
		util = float64(t.busy) / float64(elapsed)
		if util > 1 {
			util = 1
		}
	}
	avg := 0.0
	if t.latencyN > 0 {
		avg = (t.busy / time.Duration(t.latencyN)).Seconds()
	}
	m := core.ExecutorMetrics{
		Thread:      t.id,
		VM:          t.vm,
		Utilization: util,
		Pinned:      t.Pinned(),
		Completed:   t.completed,
		AvgLatencyS: avg,
		ReportedAtS: t.k.Now().Seconds(),
	}
	t.busy = 0
	t.latencyN = 0
	t.windowStart = t.k.Now()
	return m
}
