// Package scheduler implements Cloudburst's function schedulers (§4.3):
// stateless-ish request routers that register functions and DAGs (stored
// in Anna as the source of truth), build per-request DAG schedules, and
// pick executors with pluggable policies. The default policy prioritizes
// data locality using each cache's advertised key set and avoids
// executors above the utilization threshold (backpressure replication of
// hot data, §4.3); among the threads it ranks equal, it takes one with
// none of this scheduler's requests outstanding, then the one assigned
// to least recently. In a group of schedulers, each counts only its own
// requests, so each takes the idle threads of its own share of the VMs
// before any other idle one. A DAG's function that reads no reference of
// its own goes to its upstream's thread, where its only input already
// is, and runs there in place. A random policy exists for the locality
// ablation.
//
// §4.3's "local index" is the scheduler's view: once per metrics poll it
// turns the executors' published metrics into an ascending slice of
// thread records (id, VM index, utilization) and the
// backpressure-filtered candidate pools — every thread's and each
// function's pinned threads'. It also keeps an index from each advertised
// key to the VMs whose caches hold it, which moves by difference: a
// cache's new key set, read in place from its report, flips the bits of
// only the keys that entered or left it. A pick then walks precomputed
// slices, compares VM indices and reads one map entry per referenced key;
// it reads no per-thread map and allocates nothing.
//
// Schedulers also own the compute tier's fault-tolerance story (§4.5):
// every request — a registered DAG or a bare Invoke, which is the DAG of
// one node (§3) — is one tracked record in one inflight table from its
// first dispatch until the executor that ends it sends the one completion
// notice, core.RequestComplete. A record that outlives its deadline is
// re-executed on executors its earlier attempts did not use or, after
// maxRetries, failed with a terminal Result. The kinds differ only inside
// dispatch.
package scheduler

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
	"unsafe"

	"cloudburst/internal/anna"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/dag"
	"cloudburst/internal/executor"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/trace"
	"cloudburst/internal/vtime"
)

// SchedListKey is the registry Set of scheduler-metric keys.
const SchedListKey = "sys/metrics/sched-list"

// RegisterFunctionReq registers a function name cluster-wide.
type RegisterFunctionReq struct {
	Name string
}

// RegisterDAGReq registers a DAG and pins its functions onto executors.
type RegisterDAGReq struct {
	DAG      dag.DAG
	Replicas int // executor replicas to pin per function (≥1)
}

// RegisterResp acknowledges a registration.
type RegisterResp struct {
	OK  bool
	Err string
}

// DAGInvokeReq asks the scheduler to run a registered DAG. Args names
// functions, sorted by name (core.SortFnArgs): names stay at the edge,
// and the schedule built from the request addresses functions by
// position.
type DAGInvokeReq struct {
	ReqID      string
	DAG        string
	Args       []core.FnArgs
	RespondTo  simnet.NodeID
	StoreInKVS bool // persist the sink's result in the KVS under ResultKey
	WantHops   bool // report the executor hop count in the Result
	Txn        bool // commit the request's writes atomically (Transactional mode)
	ResultKey  string
	// Deadline, when positive and shorter than the scheduler's global
	// DAGTimeout, replaces it as this request's §4.5 re-execution
	// timeout, so an impatient caller's request is retried on fresh
	// executors before the global policy would have looked at it. A
	// longer Deadline never delays recovery. Clients set it from
	// WithTimeout.
	Deadline time.Duration
}

// Config carries scheduler policy constants.
type Config struct {
	// StaleAfter drops view entries whose reports are older than this —
	// how dead executors fall out of scheduling.
	StaleAfter time.Duration
	// DAGTimeout is §4.5's re-execution timeout for in-flight requests of
	// either kind; a request's own shorter wire Deadline overrides it.
	DAGTimeout time.Duration
	// RandomPolicy disables the locality heuristic (ablation).
	RandomPolicy bool
	// DispatchCost models the scheduler's per-request CPU time (policy
	// evaluation, schedule construction). The dispatcher serves requests
	// serially, so a positive cost caps one scheduler at ~1/DispatchCost
	// req/s and queues the excess — the saturation behaviour fig13
	// measures. Zero (the default) keeps dispatch free and instant.
	DispatchCost time.Duration
	// Decoded is an optional cluster-shared decoded-metrics cache; nil
	// gives the scheduler a private one.
	Decoded *core.DecodeCache
	// Trace, when set, records per-request spans (network flight, inbox
	// queueing, dispatch work, §4.5 retries) on the cluster's tracing
	// plane. CPU-side only; nil disables at zero cost.
	Trace *trace.Collector
}

// DefaultConfig returns the §4.3/§4.5 defaults.
func DefaultConfig() Config {
	return Config{
		StaleAfter: 10 * time.Second,
		DAGTimeout: 8 * time.Second,
	}
}

// Policy constants of §4.3–§4.5 that no deployment varies.
const (
	// pollInterval is how often the scheduler refreshes its local view
	// (executor metrics, cached key sets) from Anna.
	pollInterval = time.Second
	// metricsInterval is how often scheduler stats are published.
	metricsInterval = 2 * time.Second
	// utilThreshold is the backpressure bound: executors above it are
	// avoided when alternatives exist (0.70 in §4.3).
	utilThreshold = 0.70
	// maxRetries bounds re-executions per request.
	maxRetries = 3
	// maxAliveExtensions bounds how often an expired request whose
	// assigned executors still look alive gets its deadline extended
	// instead of re-executed. Extension avoids doubling load on a
	// merely-slow fleet, but an unbounded extension turns a lost
	// completion notice (e.g. the scheduler was partitioned when the
	// executor reported) into a permanently stuck request — after this
	// many extensions the request is re-executed regardless, and the
	// client's duplicate-Result guard absorbs the race if the original
	// did in fact finish.
	maxAliveExtensions = 3
)

// RequestLifetime bounds how long a scheduler keeps a request in flight
// under the re-execution timeout dagTimeout: maxRetries+1 attempts, each
// extended maxAliveExtensions times, and each expiry seen up to one retry
// scan (dagTimeout/4) late.
func RequestLifetime(dagTimeout time.Duration) time.Duration {
	return (maxRetries + 1) * (maxAliveExtensions + 1) * (dagTimeout + dagTimeout/4)
}

// view is the scheduler's local index of the compute tier (§4.3), read by
// every pick. Its threads and pools are rebuilt from the published metrics
// once per poll; its key index moves by each cache's published difference,
// walked in place, and is rebuilt only when the set of VMs changes.
type view struct {
	// threads holds one record per thread with a fresh report, ascending by
	// id; a pool is a list of indices into it, so it is ascending too.
	threads []threadRec
	// vms names the VMs the threads run on. holders indexes the keys their
	// caches last advertised: holders[key] is the offset in bits of a
	// bitset over VM indices (bit b of word w is vms[64w+b]) marking the
	// VMs that hold it, so scoring a reference against every VM is one
	// map read. A key leaves holders when its bitset empties, and free
	// lists the offsets of such all-zero bitsets for the next key to take:
	// a plain slice, not a vtime.FreeList, since syncKeys empties it in
	// place and an offset keeps nothing alive.
	vms     []string
	holders map[string]int
	bits    []uint64
	free    []int
	// all lists every thread, and pool is all after backpressure: the
	// candidates of a pick with no pins and nothing to exclude.
	all, pool []int
	// pinned holds each function's pinned threads that are in the view.
	pinned map[string]pinPool
}

// threadRec is the view's record of one executor thread.
type threadRec struct {
	id   simnet.NodeID
	vm   int // index into view.vms
	util float64
	// stamp is the thread's lastAssigned stamp, and out the count of this
	// scheduler's attempts on it whose requests have not ended, carried
	// here between rebuilds so spread reads no map.
	stamp int64
	out   int32
	// reportedS is when the thread's report in the view was taken.
	reportedS float64
}

// savedStamp is the stamp and count of a thread that left the view (0 if
// it was never assigned to), and when the thread last reported.
type savedStamp struct {
	stamp     int64
	out       int32
	reportedS float64
}

// pinPool is one function's pinned threads in the view, ascending: live
// lists them all, pool after backpressure.
type pinPool struct {
	live, pool []int
}

// healthy appends the candidates below utilThreshold to dst.
func (v *view) healthy(dst, cands []int) []int {
	for _, i := range cands {
		if v.threads[i].util < utilThreshold {
			dst = append(dst, i)
		}
	}
	return dst
}

// backpressure drops overloaded executors when alternatives exist (§4.3 —
// this is what spreads hot data onto new nodes): the candidates narrow to
// their healthy subset. The filter is soft: utilization reports lag by the
// metrics interval, so when most of the candidates look overloaded,
// routing everything at the few apparently-idle threads just herds the
// queue onto them — spread over everyone instead.
func backpressure(cands, healthy []int) []int {
	if len(healthy) > 0 && len(healthy)*2 >= len(cands) {
		return healthy
	}
	return cands
}

// indexOf finds a thread's record.
func (v *view) indexOf(id simnet.NodeID) (int, bool) {
	i := sort.Search(len(v.threads), func(i int) bool { return v.threads[i].id >= id })
	return i, i < len(v.threads) && v.threads[i].id == id
}

// tracked is one in-flight request, held for §4.5 re-execution from its
// first dispatch until its completion notice or terminal failure. One
// wire form is set: inv (a bare Invoke) or, when inv is nil, dag, each the
// message as it arrived, which the record reads and resends, never writes.
// untrack zeroes the record onto the scheduler's free list, which admit
// takes from, so nothing may read a record after untracking it: later
// code looks the request up by id.
type tracked struct {
	id        string
	respondTo simnet.NodeID
	// inv is a bare Invoke's request, forwarded to the executor as is:
	// the executor reads the tracking scheduler off the message's sender.
	inv *core.InvokeRequest
	dag *DAGInvokeReq

	timeout      time.Duration // re-execution period; the wire Deadline until track clamps it
	deadline     vtime.Time
	retries      int32
	aliveExtends int32 // consecutive deadline extensions granted

	// The latest attempt's executors — a DAG's schedule, a single's
	// target. Liveness is judged against these alone, so one dead executor
	// from a past attempt does not condemn every later one.
	sched  *core.DAGSchedule
	target simnet.NodeID
	// used counts the attempts abandoned on each executor, which the next
	// re-execution avoids and untrack takes off; nil until the first one.
	used map[simnet.NodeID]int32
}

// freeRecords bounds the free list of untracked records: a scheduler at
// rest keeps at most this many for its next burst.
const freeRecords = 64

// isDAG reports whether the request is a DAG's.
func (o *tracked) isDAG() bool { return o.inv == nil }

// attempt lists the latest attempt's executors: none before dispatch
// sends one, or once abandon folded it into used.
func (o *tracked) attempt() []simnet.NodeID {
	switch {
	case o.sched != nil:
		return o.sched.Assignments
	case o.target != "":
		return unsafe.Slice(&o.target, 1)
	}
	return nil
}

// alive reports whether every executor of the latest attempt still
// publishes fresh metrics.
func (s *Scheduler) alive(o *tracked) bool {
	for _, t := range o.attempt() {
		if _, fresh := s.view.indexOf(t); !fresh {
			return false
		}
	}
	return true
}

// abandon folds the latest attempt's executors into the set the next
// re-execution avoids, and returns it.
func (o *tracked) abandon() map[simnet.NodeID]int32 {
	if o.used == nil {
		o.used = make(map[simnet.NodeID]int32)
	}
	for _, t := range o.attempt() {
		o.used[t]++
	}
	o.target, o.sched = "", nil
	return o.used
}

// Scheduler is one scheduler node. Traffic dispatches through a serial
// simnet.Dispatcher; the view-refresh, metrics, and retry daemons are its
// periodic processes.
type Scheduler struct {
	id   simnet.NodeID
	ep   *simnet.Endpoint
	k    *vtime.Kernel
	anna *anna.Client
	cfg  Config
	disp *simnet.Dispatcher
	// rank and group place this scheduler in the cluster's static
	// scheduler group: the VMs whose view index modulo group is rank are
	// its share, whose idle threads spread takes first.
	rank, group int

	dags  map[string]*dag.DAG
	funcs map[string]bool
	// view is what pickExecutor reads; cacheKeys and pins are what it is
	// built from, kept across polls. cacheKeys maps each VM in the cache
	// registry that published to the keys it last advertised, ascending
	// (a VM that stops publishing keeps them): a decoded report's view,
	// read-only. The view's key index holds exactly its VMs' lists.
	// pins maps each function to the threads pinned with it, ascending, as
	// last reported or registered here; a function no report mentions
	// keeps its last list until every thread on it is gone
	// (dropVanishedPins).
	view      view
	cacheKeys map[string]codec.StrList
	pins      map[string][]simnet.NodeID

	// inflight holds every request this shard is answerable for, of
	// either kind, by ReqID; free holds up to freeRecords untracked,
	// zeroed records for the next requests.
	inflight map[string]*tracked
	free     vtime.FreeList[*tracked]

	// pickScratch holds pickExecutor's candidate slices, reused across
	// calls: pickExecutor never blocks, so no two invocations overlap.
	pickScratch struct {
		pool, healthy, ties, spreadTies []int
		held                            []int // the referenced keys' offsets in view.bits
	}

	// decoded caches decoded metric payloads by exact LWW version:
	// metrics publish every metricsInterval but the view polls every
	// pollInterval (and every consumer polls the same keys), so most
	// ticks would otherwise decode identical bytes again — the
	// dominant real-CPU cost of an idle scheduler. DAG topologies decode
	// through it too. Shared cluster-wide when Config.Decoded is set.
	decoded *core.DecodeCache
	// execReg and cacheReg read the executor and cache metric registries,
	// keeping each one's sorted key list between polls.
	execReg, cacheReg core.Registry
	// spans is the cluster's tracing plane (distinct from the consistency
	// audit's executor.Tracer); nil when tracing is off.
	spans *trace.Collector

	// lastAssigned spreads rapid-fire assignments across executors:
	// utilization reports lag by the metrics interval, so without local
	// memory a burst of invocations would stack onto one thread (and
	// serialize, since each thread runs one invocation at a time). The
	// stamp is logical: virtual time can stand still across consecutive
	// assignments. The outstanding count beside it is this scheduler's own
	// knowledge of which threads are busy, which no report lags. Between
	// view rebuilds both live in the thread records; each rebuild saves
	// them here first, with each thread's last report time, so a thread
	// that leaves the view and re-enters it keeps them. A saved stamp goes
	// once its thread's report is stale and its metrics key has left the
	// executor registry: the reaper removed it, and a reaped thread
	// reports no more. (The listing alone would not do: a read from a
	// lagging replica can miss a live thread for a poll or two.)
	lastAssigned map[simnet.NodeID]savedStamp
	assignSeq    int64

	// Call-count stats, published for the monitor (§4.4).
	dagCalls map[string]int64
	fnCalls  map[string]int64
	dagDone  map[string]int64
	reexecs  int64 // §4.5 re-executions issued
}

// New creates (but does not start) a scheduler on endpoint ep, the
// rank-th of a static group of group schedulers (0 of 1 when it is alone).
func New(k *vtime.Kernel, ep *simnet.Endpoint, ac *anna.Client, cfg Config, rank, group int) *Scheduler {
	s := &Scheduler{
		id:           ep.ID(),
		ep:           ep,
		k:            k,
		anna:         ac,
		cfg:          cfg,
		rank:         rank,
		group:        group,
		dags:         make(map[string]*dag.DAG),
		funcs:        make(map[string]bool),
		cacheKeys:    make(map[string]codec.StrList),
		pins:         make(map[string][]simnet.NodeID),
		inflight:     make(map[string]*tracked),
		free:         vtime.FreeList[*tracked]{Max: freeRecords},
		lastAssigned: make(map[simnet.NodeID]savedStamp),
		dagCalls:     make(map[string]int64),
		fnCalls:      make(map[string]int64),
		dagDone:      make(map[string]int64),
		decoded:      cfg.Decoded,
		execReg:      core.Registry{ListKey: executor.MetricListKey},
		cacheReg:     core.Registry{ListKey: executor.CacheListKey},
		spans:        cfg.Trace,
	}
	if s.decoded == nil {
		s.decoded = core.NewDecodeCache()
	}
	s.disp = simnet.NewDispatcher(ep, string(s.id))
	simnet.OnRequest(s.disp, func(req *simnet.Request, b RegisterFunctionReq) {
		req.Reply(s.registerFunction(b), 16)
	})
	simnet.OnRequest(s.disp, func(req *simnet.Request, b RegisterDAGReq) {
		req.Reply(s.registerDAG(b), 16)
	})
	simnet.OnMessage(s.disp, func(m simnet.Message, b *core.InvokeRequest) {
		s.admit(tracked{id: b.ReqID, respondTo: b.RespondTo, timeout: b.Deadline, inv: b}, m)
	})
	simnet.OnMessage(s.disp, func(m simnet.Message, b *DAGInvokeReq) {
		s.admit(tracked{id: b.ReqID, respondTo: b.RespondTo, timeout: b.Deadline, dag: b}, m)
	})
	simnet.OnMessage(s.disp, func(_ simnet.Message, b *core.RequestComplete) {
		// Each request's terminal outcome counts once: a re-executed
		// original finishing late, or a notice arriving after the terminal
		// failure was already reported, finds the record gone.
		if o, ok := s.inflight[b.ReqID]; ok {
			s.untrack(o)
		}
	})
	return s
}

// ID returns the scheduler's network id.
func (s *Scheduler) ID() simnet.NodeID { return s.id }

// Start launches the serve, view-refresh, metrics, and retry daemons.
func (s *Scheduler) Start() {
	s.disp.Start()
	s.disp.Every("poll", pollInterval, s.refreshView)
	s.disp.Go("metrics", s.metricsLoop)
	s.disp.Every("retry", s.cfg.DAGTimeout/4, s.retryTick)
}

// registerFunction stores the function's metadata in Anna and updates
// the shared registered-function list (§4.3).
func (s *Scheduler) registerFunction(req RegisterFunctionReq) RegisterResp {
	meta := codec.MustEncode(map[string]any{"name": req.Name})
	ts := lattice.Timestamp{Clock: int64(s.k.Now()), Node: 1}
	if err := s.anna.Put(core.FuncKey(req.Name), lattice.NewLWW(ts, meta)); err != nil {
		return RegisterResp{Err: err.Error()}
	}
	if err := s.anna.Put(core.FuncListKey(), lattice.NewSet(req.Name)); err != nil {
		return RegisterResp{Err: err.Error()}
	}
	s.funcs[req.Name] = true
	return RegisterResp{OK: true}
}

// registerDAG validates the DAG, stores its topology in Anna (the
// scheduler's only persistent metadata, §4.3), and pins each function
// onto executors. A name already registered, here or through another
// scheduler, registers again only with the same functions in the same
// order: every scheduler and executor that resolved the name keeps the
// chain it resolved, so another would split the cluster on what the name
// means.
func (s *Scheduler) registerDAG(req RegisterDAGReq) RegisterResp {
	d := req.DAG
	if err := d.Validate(); err != nil {
		return RegisterResp{Err: err.Error()}
	}
	for _, fn := range d.Functions {
		if !s.knowsFunction(fn) {
			return RegisterResp{Err: fmt.Sprintf("scheduler: function %q not registered", fn)}
		}
	}
	taken := RegisterResp{Err: fmt.Sprintf("scheduler: DAG %q is registered with another topology", d.Name)}
	if prev, ok := s.dags[d.Name]; ok && !slices.Equal(prev.Functions, d.Functions) {
		return taken
	}
	ts := lattice.Timestamp{Clock: int64(s.k.Now()), Node: 1}
	held, err := s.anna.PutIfAbsent(core.DAGKey(d.Name), lattice.NewLWW(ts, codec.MustEncode(d)))
	if err != nil {
		return RegisterResp{Err: err.Error()}
	}
	if held != nil {
		var prev any
		if l, ok := held.(*lattice.LWW); ok {
			prev, _ = codec.Decode(l.Value)
		}
		if p, ok := prev.(dag.DAG); !ok || !slices.Equal(p.Functions, d.Functions) {
			return taken
		}
	}
	s.anna.Put(core.DAGListKey(), lattice.NewSet(d.Name))
	s.dags[d.Name] = &d

	replicas := req.Replicas
	if replicas < 1 {
		replicas = 1
	}
	s.ensureView()
	for _, fn := range d.Functions {
		targets := s.pickPinTargets(fn, replicas)
		for _, tgt := range targets {
			s.ep.Send(tgt, core.PinFunction{Function: fn}, 32)
			s.addPin(fn, tgt)
		}
	}
	return RegisterResp{OK: true}
}

// addPin records a pin made here between polls, in pins and in the view.
func (s *Scheduler) addPin(fn string, tgt simnet.NodeID) {
	at, _ := slices.BinarySearch(s.pins[fn], tgt)
	s.pins[fn] = slices.Insert(s.pins[fn], at, tgt)
	s.indexPins(fn)
}

// knowsFunction checks the local view, falling back to Anna.
func (s *Scheduler) knowsFunction(fn string) bool {
	if s.funcs[fn] {
		return true
	}
	lat, found, err := s.anna.Get(core.FuncKey(fn))
	if err == nil && found && lat != nil {
		s.funcs[fn] = true
		return true
	}
	return false
}

// pickPinTargets chooses threads to host a function replica: fewest
// functions already pinned first (so a DAG's stages land on disjoint
// threads and can pipeline), then lowest utilization, spreading across
// VMs.
func (s *Scheduler) pickPinTargets(fn string, n int) []simnet.NodeID {
	pinLoad := make(map[simnet.NodeID]int)
	for _, ts := range s.pins {
		for _, t := range ts {
			pinLoad[t]++
		}
	}
	type cand struct {
		id   simnet.NodeID
		load int
		util float64
		vm   int
	}
	var cands []cand
	already := make(map[simnet.NodeID]bool)
	for _, t := range s.pins[fn] {
		already[t] = true
	}
	for _, r := range s.view.threads {
		if already[r.id] {
			continue
		}
		cands = append(cands, cand{id: r.id, load: pinLoad[r.id], util: r.util, vm: r.vm})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load < cands[j].load
		}
		if cands[i].util != cands[j].util {
			return cands[i].util < cands[j].util
		}
		return cands[i].id < cands[j].id
	})
	var out []simnet.NodeID
	usedVM := make(map[int]bool)
	for _, c := range cands {
		if len(out) >= n {
			break
		}
		if usedVM[c.vm] {
			continue
		}
		usedVM[c.vm] = true
		out = append(out, c.id)
	}
	for _, c := range cands { // fill remainder ignoring the VM spread
		if len(out) >= n {
			break
		}
		dup := false
		for _, o := range out {
			if o == c.id {
				dup = true
			}
		}
		if !dup {
			out = append(out, c.id)
		}
	}
	return out
}

// ensureView blocks briefly until at least one executor is known,
// re-polling Anna — this covers cluster warm-up, when the first request
// can arrive before the first metric publication has landed.
func (s *Scheduler) ensureView() bool {
	for attempt := 0; attempt < 20; attempt++ {
		if len(s.view.threads) > 0 {
			return true
		}
		s.refreshView()
		if len(s.view.threads) > 0 {
			return true
		}
		s.k.Sleep(100 * time.Millisecond)
	}
	return len(s.view.threads) > 0
}

// admit takes a request off the wire. Clients mint a fresh ReqID per
// invocation, so a tracked ReqID arriving again can only be a duplicated
// datagram (fault-plan link duplication) — dispatching it would run the
// whole request twice. Only expire re-enters dispatch for tracked
// requests. A new request's record comes off the free list (or is new)
// and is filled from r.
func (s *Scheduler) admit(r tracked, m simnet.Message) {
	if _, dup := s.inflight[r.id]; dup {
		return
	}
	s.recordArrival(r.id, m)
	o, ok := s.free.Get()
	if !ok {
		o = new(tracked)
	}
	*o = r
	s.dispatch(o, nil)
}

// track starts a request's §4.5 lifetime: count the call and arm the
// re-execution deadline.
func (s *Scheduler) track(o *tracked) {
	if o.isDAG() {
		s.dagCalls[o.dag.DAG]++
	} else {
		s.fnCalls[o.inv.Function]++
	}
	// The record arrives with the wire Deadline as its timeout, which
	// only ever shortens the re-execution timer: a patient WithTimeout
	// must not delay §4.5 failure recovery past the global policy.
	if o.timeout <= 0 || o.timeout > s.cfg.DAGTimeout {
		o.timeout = s.cfg.DAGTimeout
	}
	o.deadline = s.k.Now().Add(o.timeout)
	s.inflight[o.id] = o
	if o.timeout < s.cfg.DAGTimeout {
		// The periodic retry scan is paced for the global timeout; a
		// shorter per-request deadline gets its own watcher so it can
		// re-execute before the global policy would even have looked.
		id := o.id // the watcher outlives the record; do not pin it
		s.disp.Go("deadline", func() { s.watchDeadline(id) })
	}
}

// untrack ends a request's §4.5 lifetime, on its completion notice or a
// terminal failure reported from here. A DAG counts as done either way, so
// the monitor's backlog signal (calls minus terminal outcomes) does not
// accumulate a residue from failed requests.
func (s *Scheduler) untrack(o *tracked) {
	delete(s.inflight, o.id)
	for _, t := range o.attempt() {
		s.count(t, -1)
	}
	for t, n := range o.used {
		s.count(t, -n)
	}
	if o.isDAG() {
		s.dagDone[o.dag.DAG]++
	}
	*o = tracked{} // keeps neither the request nor its schedule alive
	s.free.Put(o)
}

// dispatch sends one attempt of a request, tracking it first if this is
// admit's first, and is the only place the two kinds differ: a bare Invoke
// is forwarded in its lean wire form to one executor; a DAG gets a
// schedule (one executor per function, §4.3; a reference-free function
// after the first shares its upstream's where mayRun allows) and its
// first function is triggered. A DAG request whose arguments name a
// function the DAG lacks fails on its first attempt, untracked, rather
// than run without them.
// exclude lists executors to avoid (re-executions). A re-execution's
// request can end while it blocks (a completion notice, a terminal
// failure from another expiry path); the re-execution then stops at its
// next check, so a finished request is never dispatched again.
func (s *Scheduler) dispatch(o *tracked, exclude map[simnet.NodeID]int32) {
	id, first := o.id, o.retries == 0
	ended := func() bool { return !first && s.inflight[id] != o }
	dctx := s.spans.Attach(id).Start("sched/dispatch", trace.Dispatch, s.k.Now())
	defer func() { dctx.End(s.k.Now()) }()
	if s.cfg.DispatchCost > 0 {
		s.k.Sleep(s.cfg.DispatchCost)
	}
	if ended() {
		return
	}
	var d *dag.DAG
	if o.isDAG() {
		var ok bool
		if d, ok = s.dagView(o.dag.DAG); !ok {
			s.ep.Send(o.respondTo, &core.Result{ReqID: id, Err: fmt.Sprintf("scheduler: unknown DAG %q", o.dag.DAG)}, 64)
			return
		}
		for _, a := range o.dag.Args {
			if first && !slices.Contains(d.Functions, a.Fn) {
				s.ep.Send(o.respondTo, &core.Result{ReqID: id, Err: fmt.Sprintf("scheduler: DAG %q has no function %q", d.Name, a.Fn)}, 64)
				return
			}
		}
	}
	s.ensureView()
	if first {
		s.track(o)
	} else if ended() {
		return
	}
	pick := func(fn string, args []core.Arg, pinnedOnly bool) simnet.NodeID {
		t := s.pickExecutor(fn, args, exclude, pinnedOnly)
		if t == "" {
			t = s.pickExecutor(fn, args, nil, pinnedOnly) // no healthy alternative: reuse
		}
		if t == "" {
			s.ep.Send(o.respondTo, &core.Result{ReqID: id, Err: "scheduler: no executors available"}, 64)
			s.untrack(o)
		}
		return t
	}
	if !o.isDAG() {
		if o.target = pick(o.inv.Function, o.inv.Args, false); o.target == "" {
			return
		}
		s.count(o.target, 1)
		s.ep.Send(o.target, o.inv, 96+core.ArgBytes(o.inv.Args))
		return
	}
	req := o.dag
	sched, assignments, trigger := newAttempt(len(d.Functions))
	for i, fn := range d.Functions {
		args := core.ArgsFor(req.Args, fn)
		// Without a reference of its own, its only input is already on
		// its upstream's thread.
		if i > 0 && !slices.ContainsFunc(args, core.Arg.IsRef) && s.mayRun(fn, assignments[i-1]) {
			assignments[i] = assignments[i-1]
			continue
		}
		if assignments[i] = pick(fn, args, true); assignments[i] == "" {
			return
		}
	}
	*sched = core.DAGSchedule{
		ReqID:       id,
		DAG:         req.DAG,
		Assignments: assignments,
		Args:        req.Args,
		RespondTo:   req.RespondTo,
		Scheduler:   s.id,
		StoreInKVS:  req.StoreInKVS,
		WantHops:    req.WantHops,
		Txn:         req.Txn,
		ResultKey:   req.ResultKey,
	}
	o.sched = sched
	for _, t := range assignments {
		s.count(t, 1)
	}
	// No session metadata: the executor makes it where the mode keeps one.
	*trigger = core.DAGTrigger{Schedule: sched}
	s.ep.Send(assignments[0], trigger, 128)
}

// newAttempt allocates a DAG attempt's schedule, its fns assignments and
// its trigger to function 0, messages nothing writes once sent: in one
// allocation for at most three functions, else in two.
func newAttempt(fns int) (*core.DAGSchedule, []simnet.NodeID, *core.DAGTrigger) {
	a := new(struct {
		s core.DAGSchedule
		t core.DAGTrigger
		n [3]simnet.NodeID
	})
	if fns <= 3 {
		return &a.s, a.n[:fns:fns], &a.t
	}
	return &a.s, make([]simnet.NodeID, fns), &a.t
}

// dagView resolves a DAG topology locally or from Anna (other schedulers
// may have registered it).
func (s *Scheduler) dagView(name string) (*dag.DAG, bool) {
	if d, ok := s.dags[name]; ok {
		return d, true
	}
	d, ok := core.Fetch[dag.DAG](s.anna, s.decoded, core.DAGKey(name))
	if !ok {
		return nil, false
	}
	s.dags[name] = &d
	return &d, true
}

// mayRun reports whether a DAG's function fn may run on thread id: the
// thread is in the view, and it is one of fn's live pinned threads or fn
// has none.
func (s *Scheduler) mayRun(fn string, id simnet.NodeID) bool {
	live := s.view.pinned[fn].live
	i, inView := s.view.indexOf(id)
	_, pinned := slices.BinarySearch(live, i)
	return inView && (pinned || len(live) == 0)
}

// pickExecutor implements the §4.3 policy: prefer executors that have
// the function pinned (for DAGs), skip overloaded ones, and among the
// rest prefer the executor whose VM cache holds the most of the
// requested KVS references; otherwise pick uniformly at random. With
// nothing to exclude, the candidates are the view's precomputed pools;
// a re-execution's exclude set filters them into scratch slices.
func (s *Scheduler) pickExecutor(fn string, args []core.Arg, exclude map[simnet.NodeID]int32, pinnedOnly bool) simnet.NodeID {
	v, sc := &s.view, &s.pickScratch
	sc.ties, sc.held = sc.ties[:0], sc.held[:0]
	// The function's live pinned threads when asked and there are any, else
	// every thread. Ascending either way: the order decides which thread a
	// random draw lands on.
	live, pool := v.all, v.pool
	if pinnedOnly {
		if p := v.pinned[fn]; len(p.live) > 0 {
			live, pool = p.live, p.pool
		}
	}
	if exclude != nil {
		sc.pool = sc.pool[:0]
		for _, i := range live {
			if exclude[v.threads[i].id] == 0 {
				sc.pool = append(sc.pool, i)
			}
		}
		sc.healthy = v.healthy(sc.healthy[:0], sc.pool)
		pool = backpressure(sc.pool, sc.healthy)
	}
	if len(pool) == 0 {
		return ""
	}

	if s.cfg.RandomPolicy {
		return s.assign(pool[s.k.Rand().Intn(len(pool))])
	}

	// Locality: rank by how many referenced keys the executor's VM
	// cache holds. A key no cache advertises scores for no VM.
	refs := 0
	for _, a := range args {
		if a.IsRef() {
			refs++
			if o, ok := v.holders[a.Ref]; ok {
				sc.held = append(sc.held, o)
			}
		}
	}
	if refs == 0 {
		return s.assign(s.spread(pool))
	}
	best, bestScore := -1, -1
	// The score is the VM's: computed once per run of pool entries that
	// share a VM (ascending ids keep a VM's threads adjacent), not once
	// per thread.
	scoredVM, score := -1, 0
	for _, i := range pool {
		if vm := v.threads[i].vm; vm != scoredVM {
			scoredVM, score = vm, 0
			for _, o := range sc.held {
				score += int(v.bits[o+vm/64] >> (vm % 64) & 1)
			}
		}
		if score > bestScore {
			bestScore, best = score, i
			sc.ties = append(sc.ties[:0], i)
		} else if score == bestScore {
			sc.ties = append(sc.ties, i)
		}
	}
	if len(sc.ties) > 1 {
		return s.assign(s.spread(sc.ties))
	}
	return s.assign(best)
}

// spread picks the least-recently-assigned thread (ties broken randomly)
// among the idle ones, with none of this scheduler's requests outstanding,
// or among all if none is idle: both make up for the lag between
// assignments and the utilization reports they eventually show up in.
// Each scheduler counts only its own requests, so in a group of several
// it takes the idle threads of its own share of the VMs first: an idle
// thread outside it may be running another scheduler's request, which
// would queue this one behind it.
func (s *Scheduler) spread(pool []int) int {
	const (
		busy    = 1 << 62 // above every stamp: a busy thread ranks after every idle one
		foreign = 1 << 61 // and an idle one outside this scheduler's share between them
	)
	oldest := int64(1<<63 - 1)
	ties := s.pickScratch.spreadTies[:0]
	for _, i := range pool {
		r := &s.view.threads[i]
		at := r.stamp
		switch {
		case r.out > 0:
			at += busy
		case s.group > 1 && r.vm%s.group != s.rank:
			at += foreign
		}
		switch {
		case at < oldest:
			oldest = at
			ties = append(ties[:0], i)
		case at == oldest:
			ties = append(ties, i)
		}
	}
	s.pickScratch.spreadTies = ties
	return ties[s.k.Rand().Intn(len(ties))]
}

// count moves a thread's outstanding count by d: in its view record, or
// saved in lastAssigned once it left the view (a reaped thread's is gone).
func (s *Scheduler) count(id simnet.NodeID, d int32) {
	if i, ok := s.view.indexOf(id); ok {
		s.view.threads[i].out += d
	} else if saved, ok := s.lastAssigned[id]; ok {
		saved.out += d
		s.lastAssigned[id] = saved
	}
}

// assign stamps the picked thread for spread and returns its id.
func (s *Scheduler) assign(i int) simnet.NodeID {
	s.assignSeq++
	s.view.threads[i].stamp = s.assignSeq
	return s.view.threads[i].id
}

// refreshView reads the metric registries and rebuilds the view, dropping
// stale entries (§4.3's "local index"). Each registry is read with one
// grouped multi-get instead of one Get per metrics key, so a poll tick
// costs one KVS round trip per storage node. Keys the grouped read misses
// (replication lag at the primary) are simply absent from this tick's
// view and picked up on the next one. The thread records change after the
// first read and the key sets after the second, each in one step between
// reads, so a pick running while the poll waits sees one or the other.
func (s *Scheduler) refreshView() {
	nowS := s.k.Now().Seconds()
	threads := s.execReg.Keys(s.anna, nil)
	reports := core.FetchAll[core.ExecutorMetrics](s.anna, s.decoded, threads)
	fresh := reports[:0]
	for _, em := range reports {
		if nowS-em.ReportedAtS <= s.cfg.StaleAfter.Seconds() {
			fresh = append(fresh, em)
		}
	}
	if len(fresh) > 0 {
		s.dropVanishedPins(fresh, threads, nowS)
	}
	s.setThreads(fresh)
	for id, saved := range s.lastAssigned {
		if nowS-saved.reportedS > s.cfg.StaleAfter.Seconds() && !listed(threads, core.ExecMetricsKey(""), string(id)) {
			delete(s.lastAssigned, id)
		}
	}
	members := s.cacheReg.Keys(s.anna, nil)
	s.setKeys(core.FetchAll[core.CacheMetrics](s.anna, s.decoded, members))
	s.pruneKeys(members)
}

// dropVanishedPins forgets the pin list of each function every thread of
// which is gone by lastAssigned's double check. It runs before the poll's
// fresh reports rebuild the view, and a gone thread has no fresh report
// and was not in the last view: that view holds every pin addPin made
// since the last poll, and the threads this poll's rebuild has yet to
// save. Its saved report is stale while the registry listing lacks it, or
// that check already pruned it. Only view threads are ever picked, so
// this changes no pick: it bounds the table by the live threads.
func (s *Scheduler) dropVanishedPins(fresh []core.ExecutorMetrics, listing []string, nowS float64) {
	gone := func(id simnet.NodeID) bool {
		if _, ok := s.view.indexOf(id); ok || slices.ContainsFunc(fresh, func(em core.ExecutorMetrics) bool { return em.Thread == id }) {
			return false
		}
		saved, ok := s.lastAssigned[id]
		return !ok || nowS-saved.reportedS > s.cfg.StaleAfter.Seconds() && !listed(listing, core.ExecMetricsKey(""), string(id))
	}
	for fn, ts := range s.pins {
		if !slices.ContainsFunc(ts, func(id simnet.NodeID) bool { return !gone(id) }) {
			delete(s.pins, fn)
		}
	}
}

// setThreads rebuilds the view from one poll's fresh executor reports, one
// per thread, and takes the pins they report. A poll with no fresh report
// changes nothing: the last view stands.
func (s *Scheduler) setThreads(reports []core.ExecutorMetrics) {
	if len(reports) == 0 {
		return
	}
	pins := make(map[string][]simnet.NodeID)
	for _, em := range reports {
		for _, fn := range em.Pinned {
			pins[fn] = append(pins[fn], em.Thread)
		}
	}
	for fn, ts := range pins {
		slices.Sort(ts)
		s.pins[fn] = ts
	}

	v := &s.view
	for _, r := range v.threads {
		s.lastAssigned[r.id] = savedStamp{r.stamp, r.out, r.reportedS}
	}
	slices.SortFunc(reports, func(a, b core.ExecutorMetrics) int { return cmp.Compare(a.Thread, b.Thread) })
	v.threads = make([]threadRec, len(reports))
	v.all = make([]int, len(reports))
	var vms []string
	vmIndex := make(map[string]int)
	for i, em := range reports {
		vm, ok := vmIndex[em.VM]
		if !ok {
			vm = len(vms)
			vmIndex[em.VM] = vm
			vms = append(vms, em.VM)
		}
		saved := s.lastAssigned[em.Thread]
		v.threads[i] = threadRec{id: em.Thread, vm: vm, util: em.Utilization, stamp: saved.stamp, out: saved.out, reportedS: em.ReportedAtS}
		v.all[i] = i
	}
	v.pool = backpressure(v.all, v.healthy(nil, v.all))
	if !slices.Equal(vms, v.vms) {
		v.vms = vms
		s.syncKeys()
	}
	v.pinned = make(map[string]pinPool, len(s.pins))
	for fn := range s.pins {
		s.indexPins(fn)
	}
}

// setKeys takes one poll's cache key-set reports and moves the view's
// key index by each new list's difference from the last. An unchanged
// publication is the very view the last poll stored (the decode cache
// hands every poll the same value until the VM publishes again), so the
// index moves once per publication, not once per poll.
func (s *Scheduler) setKeys(reports []core.CacheMetrics) {
	for _, cm := range reports {
		old := s.cacheKeys[cm.VM]
		if old.Same(cm.Keys) {
			continue
		}
		s.cacheKeys[cm.VM] = cm.Keys
		if vm := slices.Index(s.view.vms, cm.VM); vm >= 0 {
			s.view.moveKeys(vm, old, cm.Keys)
		}
	}
}

// listed reports whether a registry's sorted members hold prefix+name.
// An unreadable listing (nil) holds every name, so it prunes nothing.
func listed(members []string, prefix, name string) bool {
	_, ok := slices.BinarySearchFunc(members, name, func(m, name string) int {
		return strings.Compare(strings.TrimPrefix(m, prefix), name)
	})
	return ok || members == nil
}

// pruneKeys drops from cacheKeys and the index each VM whose cache left
// the registry's sorted members, so no departed VM's publication stays
// referenced.
func (s *Scheduler) pruneKeys(members []string) {
	for name, keys := range s.cacheKeys {
		if listed(members, core.CacheKeysKey(""), name) {
			continue
		}
		delete(s.cacheKeys, name)
		if vm := slices.Index(s.view.vms, name); vm >= 0 {
			s.view.moveKeys(vm, keys, codec.StrList{})
		}
	}
}

// syncKeys re-indexes the view's keys, in its reused storage, for a new
// set of VMs: every indexed key keeps its name and takes a zeroed bitset
// of the new width, each VM's list moves in from an empty one, and the
// keys no VM holds any longer leave. Offsets follow map order, which no
// pick can observe.
func (s *Scheduler) syncKeys() {
	v := &s.view
	if v.holders == nil {
		v.holders = make(map[string]int)
	}
	words := (len(v.vms) + 63) / 64
	n := len(v.holders) * words
	v.bits, v.free = slices.Grow(v.bits[:0], n)[:n], v.free[:0]
	clear(v.bits)
	o := 0
	for key := range v.holders {
		v.holders[key] = o
		o += words
	}
	for vm, name := range v.vms {
		v.moveKeys(vm, codec.StrList{}, s.cacheKeys[name])
	}
	for key, o := range v.holders {
		v.release(key, o)
	}
}

// moveKeys moves VM vm's bits in the key index from the keys of was to
// those of now, both ascending: one in-place merge walk sets the bit of
// each key only now holds and clears each only was holds.
func (v *view) moveKeys(vm int, was, now codec.StrList) {
	was.Diff(now, func(key []byte) { v.unhold(key, vm) }, func(key []byte) { v.hold(key, vm) })
}

// hold sets vm's bit for key, indexing the key first if no VM held it.
// Only then does the index copy the name: a key read in place is a view
// of a publication, which must not outlive it.
func (v *view) hold(key []byte, vm int) {
	o, ok := v.holders[string(key)]
	if !ok {
		if n := len(v.free); n > 0 {
			o, v.free = v.free[n-1], v.free[:n-1]
		} else {
			o = len(v.bits)
			v.bits = append(v.bits, make([]uint64, (len(v.vms)+63)/64)...)
		}
		v.holders[string(key)] = o
	}
	v.bits[o+vm/64] |= 1 << (vm % 64)
}

// unhold clears vm's bit for key, dropping the key once no VM holds it.
// release's delete keeps no reference to key, so key is not copied.
func (v *view) unhold(key []byte, vm int) {
	o := v.holders[string(key)]
	v.bits[o+vm/64] &^= 1 << (vm % 64)
	v.release(unsafe.String(unsafe.SliceData(key), len(key)), o)
}

// release drops key, whose bitset is at offset o, once no VM holds it.
func (v *view) release(key string, o int) {
	for _, w := range v.bits[o : o+(len(v.vms)+63)/64] {
		if w != 0 {
			return
		}
	}
	delete(v.holders, key)
	v.free = append(v.free, o)
}

// indexPins rebuilds fn's pinned candidates in the view from pins.
func (s *Scheduler) indexPins(fn string) {
	v := &s.view
	var p pinPool
	for _, id := range s.pins[fn] {
		if i, ok := v.indexOf(id); ok {
			p.live = append(p.live, i)
		}
	}
	p.pool = backpressure(p.live, v.healthy(nil, p.live))
	v.pinned[fn] = p
}

// retryTick expires every tracked request whose deadline has passed
// (§4.5), in request-id order.
func (s *Scheduler) retryTick() {
	var overdue []string
	for id, o := range s.inflight {
		if s.k.Now() >= o.deadline {
			overdue = append(overdue, id)
		}
	}
	if len(overdue) == 0 {
		return
	}
	sort.Strings(overdue)
	s.refreshView()
	for _, id := range overdue {
		s.expire(id)
	}
}

// expire handles one expired request against a freshly-refreshed view.
// When an executor of its latest attempt looks dead (its metrics went
// stale), the request is re-executed on fresh executors. A
// merely-overloaded fleet instead gets its deadline extended —
// re-executing slow requests would double the load exactly when the
// system can least afford it — but only maxAliveExtensions times: past
// that the request is re-executed regardless, so a lost completion
// notice cannot strand it forever (the client's duplicate-Result guard
// absorbs the race when the original execution did finish, and any late
// original after retry exhaustion).
func (s *Scheduler) expire(id string) {
	o, ok := s.inflight[id]
	if !ok || s.k.Now() < o.deadline {
		return // completed, or re-armed by a concurrent expiry path
	}
	if o.aliveExtends < maxAliveExtensions && s.alive(o) {
		o.aliveExtends++
		o.deadline = s.k.Now().Add(o.timeout)
		return
	}
	if o.retries >= maxRetries {
		s.ep.Send(o.respondTo, &core.Result{ReqID: id, Err: "scheduler: request failed after retries"}, 64)
		s.untrack(o)
		return
	}
	o.retries++
	o.aliveExtends = 0
	o.deadline = s.k.Now().Add(o.timeout)
	s.reexecs++
	s.spans.Reissue(id, s.k.Now())
	s.dispatch(o, o.abandon())
}

// watchDeadline drives §4.5 expiry for one request whose wire Deadline
// is shorter than the global retry-scan cadence; it exits once the
// request leaves the inflight table.
func (s *Scheduler) watchDeadline(id string) {
	for {
		o, ok := s.inflight[id]
		if !ok {
			return
		}
		if d := o.deadline.Sub(s.k.Now()); d > 0 {
			s.k.Sleep(d)
			continue
		}
		s.refreshView()
		s.expire(id)
	}
}

// metricsLoop registers the scheduler's metrics key, then publishes
// stats for the monitor (§4.4) on the metrics cadence.
func (s *Scheduler) metricsLoop() {
	s.anna.Put(SchedListKey, lattice.NewSet(core.SchedMetricsKey(string(s.id))))
	s.disp.RunEvery(metricsInterval, s.metricsTick)
}

func (s *Scheduler) metricsTick() {
	m := core.SchedulerMetrics{
		Scheduler:   s.id,
		DAGCalls:    copyCounts(s.dagCalls),
		FnCalls:     copyCounts(s.fnCalls),
		ReportedAtS: s.k.Now().Seconds(),
	}
	// DAG completion counts ride along in FnCalls under a reserved
	// prefix so the monitor can compute completion rates without a
	// second round trip.
	for d, n := range s.dagDone {
		m.FnCalls["done/"+d] = n
	}
	ts := lattice.Timestamp{Clock: int64(s.k.Now()), Node: 2}
	s.anna.Put(core.SchedMetricsKey(string(s.id)), lattice.NewLWW(ts, codec.MustEncode(m)))
}

// recordArrival charges a just-dequeued request message's flight and
// inbox wait to the trace: [SentAt, ArrivedAt] is simulated network
// time, [ArrivedAt, now] is how long the serial dispatcher's inbox
// held it — the queueing that diverges past the saturation knee.
func (s *Scheduler) recordArrival(reqID string, m simnet.Message) {
	ctx := s.spans.Attach(reqID)
	if !ctx.Enabled() {
		return
	}
	ctx.Record("net/sched", trace.Network, m.SentAt, m.ArrivedAt)
	ctx.Record("sched/queue", trace.Queue, m.ArrivedAt, s.k.Now())
}

func copyCounts(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Inflight reports tracked requests of either kind (test hook).
func (s *Scheduler) Inflight() int { return len(s.inflight) }

// Reexecutions reports how many §4.5 re-executions this scheduler has
// issued (failure experiments align it with their latency timelines).
func (s *Scheduler) Reexecutions() int64 { return s.reexecs }
