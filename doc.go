// Package cloudburst is a from-scratch Go reproduction of Cloudburst
// (Sreekanti et al., "Cloudburst: Stateful Functions-as-a-Service",
// PVLDB 13(11), 2020): a stateful Function-as-a-Service platform built
// on the principle of logical disaggregation with physical colocation
// (LDPC).
//
// The platform combines a lattice key-value store (a reproduction of
// Anna) with mutable caches co-located with function executors,
// DAG-structured function composition, direct executor-to-executor
// messaging, autoscaling, and distributed session consistency protocols
// (repeatable read and causal) that hold even when one logical request
// executes across many machines.
//
// Because the paper's testbed is AWS, the whole system runs on a
// deterministic virtual-time kernel (internal/vtime): components are
// real concurrent processes exchanging real protocol messages, but time
// is simulated, so a ten-minute autoscaling trace replays in well under
// a second of wall-clock time and every run is reproducible for a fixed
// seed. Each process is a runtime coroutine of whoever called Run, so a
// panic — or t.Fatalf — inside a process (a Run body, a registered
// function, a Kernel().Go closure) is safe: it surfaces on the test's
// own goroutine, deferred Close and all, like a failure anywhere else.
//
// # Quick start
//
//	cfg := cloudburst.DefaultConfig()
//	cb := cloudburst.NewCluster(cfg)
//	defer cb.Close()
//
//	cb.RegisterFunction("square", func(ctx *cloudburst.Ctx, args []any) (any, error) {
//		x := args[0].(int)
//		return x * x, nil
//	})
//
//	cb.Run(func(cl *cloudburst.Client) {
//		cl.Put("key", 2)
//		out, _ := cloudburst.As[int](cl.Invoke("square", []any{cloudburst.Ref("key")}))
//		fmt.Println(out) // 4
//	})
//
// # Configuring a deployment
//
// Config is the one deployment struct: Mode, fleet and storage sizes,
// autoscaler and failure-handling tuning, and the two observers (Trace
// for spans, Tracer for the consistency audit). Start from DefaultConfig,
// which holds every default, and set what differs; a tuning field set
// to zero means zero. internal/cluster.New translates the struct once into the
// Anna, cache, scheduler and monitor configs. Consistency is
// internal/core's Mode, so the public levels and the modes the
// components read are the same values.
//
// # The invocation API
//
// Invoke and InvokeDAG are the single invocation surface (Figure 2's
// one call path): both return a *Future immediately, and every error —
// argument encoding, execution, timeout — surfaces on the future, so
// invocations compose without intermediate error plumbing. Futures are
// push-based: executors deliver results to the issuing client's
// endpoint, demultiplexed by request ID; nothing polls the KVS unless
// asked to.
//
//	fut := cl.Invoke("square", []any{3})           // dispatch, don't wait
//	v, err := fut.Wait()                           // block in virtual time
//	n, err := cloudburst.As[int](fut)              // typed result
//	vals, err := cloudburst.All(futA, futB, futC)  // fan-in
//	futs := cl.Batch(invs)                         // pipeline N requests
//
// Functional options tune one invocation:
//
//   - WithStoreInKVS persists the result under Future.Key (Figure 2's
//     store_in_kvs=True); the future resolves by reading that key, and
//     other clients can Get it directly.
//   - WithHopCount reports the executor hop count via Future.Hops
//     (Figure 8's per-depth normalization).
//   - WithTimeout bounds the future's Wait; the default is the
//     client's Timeout field.
//
// Multi-key reads batch: the cache's cold-read path under Invoke issues
// one grouped multi-get round trip per Anna storage node instead of one
// per key. The keys are grouped by primary owner, the groups fetched
// concurrently in ascending owner order, and results returned by
// position; an unreachable owner's keys fall back to the per-key replica
// walk. The cache's cold read batches without allocating: its miss list,
// results, grouped keys and reply space are records reused from read to
// read.
//
// Inside a function, Ctx is the paper's Table 1 object API: Get, Put,
// Send, Recv and ID. Table 1's delete is not offered: a removal fanned
// out to every owner is not a lattice merge, so a replica that missed it
// would hand the value back once replicas repair each other. It returns
// as a tombstone write (ROADMAP 17(c)).
//
// The pre-Future Call* family (Call, CallAsync, CallDAG, CallDAGDetail,
// CallDAGAsync) has been removed after one release as deprecated shims;
// each was a one-liner over Invoke/InvokeDAG with the options above.
//
// # Transactions
//
// The sixth consistency mode, Transactional, upgrades a request's
// writes from independent puts to an atomic multi-key commit. A
// cluster in that mode accepts WithTxn on any Invoke or InvokeDAG:
// every Ctx.Put inside the request is buffered in the executor tier
// (reads see the request's own staged writes; in a DAG the staged set
// rides the triggers downstream), and when the request finishes, the
// sink executor runs presumed-abort two-phase commit across the Anna
// storage nodes that own the written keys. Prepared-but-uncommitted
// versions are invisible to every other reader, prepare validates
// against the versions the request read (optimistic concurrency — a
// conflicting interleaving aborts with AbortError rather than losing
// an update), and the coordinator logs its commit decision in Anna
// before releasing any participant, so a coordinator VM that dies
// mid-protocol is recovered by the participants' sweep: in-doubt
// prepares resolve from the log, or time out into the presumed abort.
// A function error discards the staged writes outright — nothing
// reaches storage.
//
// The worked example is a bank transfer, whose balance-sum invariant
// is exactly what non-transactional modes cannot hold through
// concurrency or a crash between the debit and the credit:
//
//	cfg := cloudburst.DefaultConfig()
//	cfg.Mode = cloudburst.Transactional
//	cb := cloudburst.NewCluster(cfg)
//	defer cb.Close()
//
//	cb.RegisterFunction("transfer", func(ctx *cloudburst.Ctx, args []any) (any, error) {
//		from, to, amount := args[0].(string), args[1].(string), args[2].(int)
//		fb, _, err := ctx.Get(from)
//		if err != nil {
//			return nil, err
//		}
//		tb, _, err := ctx.Get(to)
//		if err != nil {
//			return nil, err
//		}
//		if err := ctx.Put(from, fb.(int)-amount); err != nil {
//			return nil, err
//		}
//		if err := ctx.Put(to, tb.(int)+amount); err != nil { // atomic with the debit
//			return nil, err
//		}
//		return "ok", nil
//	})
//
//	cb.Run(func(cl *cloudburst.Client) {
//		cl.Put("alice", 100)
//		cl.Put("bob", 100)
//		_, err := cl.Invoke("transfer", []any{"alice", "bob", 30}, cloudburst.WithTxn()).Wait()
//		// err == nil: both balances moved. AbortError: neither did —
//		// re-invoke. Either way alice+bob == 200 for every observer.
//	})
//
// The figure behind the mode (cmd/cb-bench -run fig15-txn) sweeps this
// workload across all six modes — the five non-transactional rows
// drift the balance sum under concurrent transfers, the Txn row holds
// it at the price of an abort rate and a commit round trip — and the
// chaos matrix's three txn cells crash the coordinator between
// prepare and commit, a participant after its ack, and the commit
// fan-out itself, asserting zero lost funds and zero in-doubt
// prepares after heal. The audit plane (internal/audit) gains the
// matching detectors: fractured reads of a committed write set (torn
// atomicity) and rw-antidependency cycles between committed
// transactions (serializability), both inert on non-transactional
// traces.
//
// # The zero-copy data plane
//
// User values are serialized by internal/codec, the one encoder: a
// tagged binary format for []byte, string, int/float64/bool, []float64,
// []string, map[string]string, map[string]any of those, and registered
// wire structs (next section) — the wire format is documented in that
// package. A value of any other type is an error from Client.Put,
// Ctx.Put, Invoke (as an argument) or the future (as a function
// result), never a panic. Once encoded, a payload is immutable: the
// lattice capsules (LWW, Causal), the co-located caches, the Anna KVS,
// the simulated cloud storage services, and the executors all share the
// same byte slice instead of copying it, and executors additionally
// decode reads through the cluster's one core.DecodeCache, which keeps
// each key's latest decoded version (named by its LWW timestamp or
// causal capsule digest), so every thread of every VM shares one decoded
// value per version, read-only by the same convention. A causal version's
// vector clock and dependency set need no convention: each is a sorted
// value behind an unexported field, immutable by construction, and shared
// by reference the same way; a capsule joins its siblings' clocks once,
// where it is built. A clock entry names its writer by a pointer to the
// process's one interned copy of the name (16 bytes an entry, not 24),
// and entries order by the name itself. Two conventions make the payloads sound,
// both enforced by tests (the lattice payload guard):
//
//   - Writers always allocate a fresh buffer; nothing mutates payload
//     bytes in place.
//   - Values handed to functions (decoded arguments, Ctx.Get results)
//     are read-only; copy before mutating. One rule: a generic value
//     views its payload and a wire struct copies. A decoded []byte and
//     every decoded string (list elements and map keys included) keep
//     the payload alive, which the caches hold anyway, as they always
//     did for a []byte. Appending to a decoded slice is safe — decoded
//     slices carry no spare capacity.
//
// The copies this removes are harness overhead, not modeled latency:
// simulated metrics are identical with and without them.
//
// A function's *Ctx and its args slice, unlike the values in the slice,
// are the executor thread's own, cleared when the function returns and
// reused for the next invocation: a function keeps neither.
// Appending to args copies it, as appending to a decoded slice does.
//
// # Defining a wire struct
//
// Control-plane structs that cross the wire every metrics interval
// (executor/cache/scheduler metrics, DAG topologies, workload results),
// and any struct a function takes or returns, implement codec.Struct —
// a hand-laid-out, reflection-free encoding (wire tag 0x0f) — and
// register a stable wire name. To add one:
//
//	type Report struct {
//		Node  string
//		Score float64
//		Tags  []string
//		Calls map[string]int64
//	}
//
//	func (r Report) AppendWire(dst []byte) []byte { // value receiver
//		dst = codec.AppendStr(dst, r.Node)
//		dst = codec.AppendF64(dst, r.Score)
//		dst = codec.AppendStrs(dst, r.Tags)
//		return codec.AppendI64Map(dst, r.Calls)
//	}
//
//	func (r *Report) DecodeWire(body []byte) error { // pointer receiver
//		rd := codec.NewReader(body)
//		r.Node = rd.Str()
//		r.Score = rd.F64()
//		r.Tags = rd.Strs()
//		r.Calls = rd.I64Map()
//		return rd.Done() // sticky error + whole-body consumption check
//	}
//
//	func init() { codec.RegisterStruct[Report, *Report]("mypkg.Report") }
//
// DecodeWire must read fields in AppendWire's order and end with
// Done(). Slices encode as a count (nil and empty both decode nil,
// matching gob's struct-field omission); maps carry a presence byte
// (nil round-trips nil, non-nil empty round-trips non-nil, again
// matching gob) — each type's tests compare against a real gob round
// trip. Forgetting RegisterStruct is an immediate error from the first
// Encode of the type, naming it. A Strs field decodes as one copy of
// its string bytes that every element shares, two allocations whatever
// its length; a codec.StrList field, the same bytes on the wire, decodes
// as a view of the payload instead, read in place: a cache's key set.
// Encoded size is the struct's actual
// field bytes, which the simulated transfer and KVS service times see —
// changing a layout changes the control-plane byte schedule, so compare
// the tables and the benchmark against your base (scripts/tablediff.sh,
// scripts/benchdiff.sh) when you do.
//
// The control plane reads such structs back one way. A metrics registry
// is a Set of member keys, each an LWW capsule: core.Registry lists the
// members as the Set stores them, already sorted, and
// core.FetchAll reads them with one grouped multi-get and decodes each
// as the asked type, skipping what is missing or of another type.
// core.Fetch reads one key the same way: a DAG topology, a warm seed.
// Schedulers, the monitor, the cluster and its executor threads decode
// through one core.DecodeCache per cluster, one entry per key and at most
// a fixed number of keys, so each published or read version is decoded
// once.
//
// # The allocation-free simulation substrate
//
// Underneath the data plane, the substrate itself is amortized
// allocation-free: the virtual-time kernel (internal/vtime) reuses
// parked coroutines for new processes and pools its timer entries and
// channel waiters, and the network (internal/simnet) pools message
// delivery events and RPC request/reply state. Every such pool, in the
// substrate and above it, is one type, vtime.FreeList: a LIFO list that
// clears the slot it pops, so a value dropped after reuse is not kept
// alive, and that holds its own bound. Replaying minutes of
// cluster traffic costs milliseconds of real time and (steady-state)
// no garbage; regression tests pin the substrate's allocs-per-message
// and the kernel's process-reuse rate.
//
// The request path above it computes per request only what is per
// request. A scheduler picks executors from its view of the compute tier
// (§4.3's local index), rebuilt once per metrics poll: the threads with a
// fresh report as an ascending slice of records and the
// backpressure-filtered candidate pools (every thread's, and each
// function's pinned threads'). Beside them sits an index from each key a
// cache advertises to the VMs holding it. A cache keeps its key set
// sorted and merges in only the keys that entered or left. The index
// merge-walks each new report's key list, read in place, against the
// last, and copies only the names of keys that enter, so the key-set
// plane costs what changed, not what is cached. A pick walks those slices
// and allocates nothing. Among the threads that tie on locality it takes
// one with none of its scheduler's requests outstanding, a count each
// record carries from dispatch to the request's end, and then the one
// assigned to least recently. A scheduler counts only its own requests,
// so in a group of n schedulers the k-th takes the idle threads of the
// VMs whose view index is k modulo n first, then any other idle thread,
// then a busy one. Client routing to a
// scheduler shard allocates nothing either. A DAG is a chain, so a
// function's position in the DAG's function list says where its input
// comes from and where its result goes: function i is triggered by
// function i-1 and triggers function i+1, and a trigger carries one
// input, the previous function's result (none at function 0). A function
// after the first that reads no reference of its own is assigned its
// upstream's thread, when that thread has it pinned (or it has no pins),
// and the thread runs it next, in place, with no trigger on the wire; it
// is still its own hop, its session begun and ended as if it had
// arrived. Names stay
// at the edge: a request's client arguments are one list sorted by
// function name, and inside the cluster a schedule assigns threads, and a
// trigger names its target, by position, so no hop builds or probes a map
// keyed by function name. Session metadata exists only in the modes that
// read it: under LWW, SK, MK and Transactional a DAG trigger carries
// none. Its tables live as long as the request and are then reused, not
// rebuilt. A session that ends with its invocation (a bare invocation's
// under DSRR, DSC and MK, an MK DAG function's) is the executor thread's
// own, emptied once the invocation completes; a DSRR or DSC DAG's rides
// its triggers and is the request's. A cache empties a finished request's
// snapshot table at DAGDone and hands it to the next request's first
// snapshot. A thread keeps a session of at most 256 keys and a cache at
// most 8 tables of at most 64 snapshots; anything larger is dropped.
//
// # Writing a server component
//
// Server components (storage nodes, caches, schedulers, executors,
// simulated cloud services) do not write receive loops. Each owns a
// simnet.Dispatcher and registers typed handlers:
//
//	d := simnet.NewDispatcher(ep, "my-node")
//	simnet.OnRequest(d, func(req *simnet.Request, b *GetReq) {
//		b.Lat, b.Found = held, true // the caller's reply space
//		req.Reply(Filled{}, respSize) // exactly once
//	})
//	simnet.OnMessage(d, func(m simnet.Message, b *GossipMsg) { ... }) // reads b
//	d.Every("gossip", interval, func() { ... }) // periodic daemon
//	d.Start()                                   // serve loop process
//	...
//	d.Stop() // serve loop and daemons exit together
//
// By default handlers run inline on the serve process, so a handler
// that sleeps (modeling per-operation service time) serializes the
// endpoint and queueing delay emerges under load — the right shape for
// storage and scheduler nodes. NewDispatcher(...).Concurrent() instead
// runs every inbound payload in its own pooled kernel process — the
// right shape for wide front fleets (the simulated S3/DynamoDB); a
// partially serial service (Redis's single master thread) combines
// Concurrent with its own vtime.Semaphore. Handlers for request bodies
// must call Reply exactly once: requests are pooled and recycled after
// the caller consumes the reply.
//
// The message rule: a message goes by pointer and is immutable once
// sent, and one event costs one allocation however many sends it makes
// (a request's end sends its Result, RequestComplete and one DAGDone
// pointer to every cache from one record; a pushed version is one
// message to all its subscribers). An RPC body carries its reply space,
// which the owner fills before its one Reply (Anna's GetReq, PutReq and
// MultiGetReq); a body whose call timed out may still be filled late, so
// it is never reused.
//
// # Injecting faults
//
// The chaos plane (internal/fault, layered on simnet's fault overlays)
// turns any deployment into a failure experiment. A fault.Plan is a
// declarative schedule of typed events on the virtual clock; an
// Injector runs it as a daemon and records a timeline experiments can
// align with their latency samples. A fault that heals is one plan
// entry: During(from, to, f) applies f at from and heals it at to.
//
//	in := cb.Internal()
//	inj := fault.NewInjector(in)
//	plan := fault.NewPlan("demo").
//		During(30*time.Second, 60*time.Second, fault.CrashVM{VM: "vm1"})
//	cb.Run(func(cl *cloudburst.Client) { inj.Start(plan) })
//
// The primitives compose three fault families:
//
//   - Network: simnet.LinkPolicy overlays (drop probability, added
//     latency, jitter, duplication) installed per node (DegradeNode,
//     DegradeVM), each cleared by its heal. Drop ≥ 1 is a full
//     partition. Network.SetDown (and Cluster.KillVM on top of it) is
//     the thin full-drop special case. Duplication applies to one-way
//     datagrams only; RPCs ride pooled at-most-once records. SplitBrain
//     composes directed link drops into an asymmetric control-plane
//     partition: one VM blinded from the monitor (or half the
//     scheduler group) while the rest of the control plane keeps
//     scheduling onto it.
//   - Compute: CrashVM partitions a VM away mid-flight (§4.5 — the
//     scheduler keeps one tracked record per request, a bare Invoke
//     being the DAG of one node, until the executor that ends it, in
//     a value or an error, sends the one completion notice; a record
//     that outlives its deadline is re-executed elsewhere, and
//     WithTimeout's deadline travels on the wire and drives that
//     timer per request). Its heal boots a replacement generation
//     after the spin-up delay (Cluster.RestartVM): fresh endpoints, a
//     cold cache (or, with CrashVM{Warm: true}, a warm one), executor
//     threads that re-register with the schedulers through the
//     ordinary metrics path, and monitor re-admission. RollingRestart
//     and RackFailure compose the full state lifecycle below.
//   - Storage: CrashAnnaNode partitions one storage replica until its
//     heal (the client replica walk rides it out when the
//     replication factor covers the loss); DropSnapshots discards
//     per-request version snapshots (§5.3's upstream-cache failure —
//     session-consistent DAGs see ErrSnapshotGone and re-issue).
//
// fault.RandomPlan draws a reproducible randomized plan (equal seeds,
// equal schedules) whose every fault heals inside a bounded window —
// the chaos-matrix smoke sweeps it across all workloads × all
// consistency modes, and the Figure 10 bench
// (internal/bench/fig10.go) uses an explicit crash/restart plan to
// reproduce the §4.5 performance-under-failure timeline.
//
// # Generating traffic
//
// Every paper figure drives the system closed-loop: N simulated
// clients block on their own futures, so offered load collapses
// exactly when the system slows down and saturation never shows. The
// traffic plane (internal/traffic) is the open-loop alternative: a
// seeded Poisson stream fires requests at their generated instants
// whether or not earlier ones have completed, which is how real
// aggregate load behaves and the only way a control-plane bottleneck
// becomes visible as a diverging queue.
//
//	zip := traffic.NewZipfKeys(seed, 1.3, keys, "k")
//	spec := traffic.Spec{
//		Name:     "open",
//		Arrivals: traffic.NewPoisson(seed, 600),
//		Window:   2 * time.Minute,
//		Next: func(n int64) traffic.Invocation {
//			return traffic.Invocation{Function: "serve",
//				Args: []core.Arg{{Ref: zip.Next()}}}
//		},
//	}
//	rec := traffic.NewPool(in.K, in, eps, spec).Run()
//	p99 := rec.Hist.Quantile(0.99)
//
// The arrival stream draws from its own seeded source, so a fixed
// seed replays the identical request stream; ZipfKeys and Mix add
// hot-key skew and per-tenant DAG mixes. The pool records latencies
// into a fixed-bucket streaming histogram (no per-request sample
// slice), and the figure reads its quantiles and the sustained rate
// (Recorder.Sustained) off the recorder in place. A bounded reaper
// re-issues requests that stay silent past RetryAfter, walking the
// scheduler ranking so retries land on a different shard.
//
// Offered load beyond one scheduler's dispatch capacity is the
// headline experiment (cmd/cb-bench -run fig13-saturation): the
// scheduler group is sharded behind consistent request hashing
// (Config.Schedulers), each request's ranking of shards is stable and
// client-computed, and Future.Wait re-routes a still-silent request to
// the next-ranked shard at half its wait budget — so the saturation
// knee scales with the shard count (§3.2's "many schedulers behind a
// load balancer").
//
// # Tracing a request
//
// The tracing plane (internal/trace) reconstructs where each request's
// virtual-time wall clock went. Hand the cluster a span collector and
// every Invoke/InvokeDAG is traced end to end — client dispatch,
// scheduler queue and dispatch work, executor queue and compute, cache
// and Anna reads, §4.5 retries, simulated network flight:
//
//	col := trace.New() // internal/trace
//	cfg := cloudburst.DefaultConfig()
//	cfg.Trace = col
//	cb := cloudburst.NewCluster(cfg)
//	...
//	for _, tr := range col.Done() { // retained finished span trees
//		fmt.Print(trace.TreeString(tr))
//	}
//
// A DAG request's tree (cmd/cb-cluster prints one per run) reads:
//
//	invoke-dag  req=client-5-r2  trace=53a81a4ea5b4bc41  wall=3.64ms  attempts=1
//	├─ net/sched          network      0.22ms [0.00→0.22]
//	├─ sched/queue        queue        0.00ms [0.22→0.22]
//	├─ sched/dispatch     dispatch     0.00ms [0.22→0.22]
//	├─ net/exec           network      0.18ms [0.22→0.41]
//	├─ exec/invoke        compute      1.34ms [1.02→2.36]
//	├─ cache/read         cache        0.54ms [1.82→2.36]
//	│  └─ anna/get           kvs          0.49ms [1.87→2.36]
//	├─ net/exec           network      0.22ms [2.36→2.59]
//	├─ exec/invoke        compute      0.80ms [2.59→3.39]
//	└─ net/result         network      0.25ms [3.39→3.64]
//
// Span context propagates across hops by re-attaching to the collector
// under the request ID every wire struct already carries — the same
// key the result demuxes use — and within a hop by passing trace.Ctx
// values down ordinary call paths. That is the zero-perturbation rule:
// tracing is CPU-side only, so no wire struct gains a field, no
// message grows a byte, and no component sleeps or draws randomness
// for the tracer. A traced run's simulation schedule — every service
// time, every figure table — is byte-identical to an untraced one
// (enforced by diff tests), and a nil collector disables everything at
// zero allocations (pinned by a tripwire test).
//
// The critical-path analyzer folds each finished tree into a Summary:
// per elementary interval of the root's window, the deepest covering
// span wins (ties to the later-opened span, so a cache read opened
// during a function body shadows the body), and its category — queue,
// dispatch, kvs, cache, compute, retry, network — is charged the
// interval. Summaries power Collector.Quantile (the p99 request by
// wall time), Summary.Dominant (what to blame), and the fig14
// breakdown figure (cmd/cb-bench -run fig14-breakdown), whose
// acceptance gate attributes ≥95% of the p99 wall for the fig10
// recovery spike and the fig13 saturation knee.
// Collector.ChromeJSON exports retained trees as Chrome trace-event
// JSON (chrome://tracing / Perfetto), deterministic byte-for-byte for
// a fixed seed.
//
// # VM lifecycle: crash, warm replacement, rolling upgrades
//
// A VM generation that dies is fully retired, not abandoned. When its
// replacement boots (or the VM is deliberately deallocated), the
// generation reaper removes the dead generation's simnet endpoints —
// waking and releasing any kernel processes still parked on them — and
// scrubs its metric keys out of the Anna discovery registries: the
// per-thread executor reports, the per-VM cache keyset, and their
// entries in the grow-only registry sets the schedulers and monitor
// poll. N crash/restart cycles therefore leave zero ghost keys, zero
// orphaned endpoints, and a flat kernel process count (asserted by the
// lifecycle tests and re-checked after every chaos-matrix cell).
//
// Recovery comes in two temperatures. Cluster.RestartVM(name, false)
// boots a cold replacement: every cached key refaults from Anna on
// first use, which under load shows up as a latency spike an order of
// magnitude above steady state (the refault storm). A warm restart,
// RestartVM(name, true), instead restores state the moment the
// replacement boots: KillVM records a
// WarmSeed — the dying generation's cached key set and pinned
// functions — under a lifecycle key in Anna, and the replacement
// bulk-fetches those keys from a live peer cache's snapshot service and
// re-pins the recorded functions, so only keys no peer holds refault
// cold. The lifecycle experiment (cmd/cb-bench -run lifecycle) measures
// the difference: the warm replacement's recovery spike is >=5x lower
// than the cold one's in the same run.
//
// Rolling upgrades compose the same primitives with a drain phase.
// Cluster.DrainVM stops a VM's metrics publication without touching
// its processes: schedulers drop its threads from the routing view once
// the reports age past StaleAfter, in-flight work completes normally,
// and only then does the plan replace the idle VM. fault.RollingRestart
// walks a VM list one at a time (drain → warm replace → wait for the
// replacement to join → settle), keeping per-second p99 within a small
// factor of steady state for the whole upgrade; fault.RackFailure
// models the correlated cousin — two VMs lost at once, recovered warm.
// Each runs as a dedicated chaos-matrix cell; fault.RandomPlan draws
// neither.
//
// # Running experiments in parallel
//
// A figure is a grid of independent simulations: every cell (one load
// point, one consistency mode, one chaos scenario) boots its own
// cluster on its own virtual-time kernel from its own seed. The
// experiment runner (internal/parallel) exploits exactly that
// boundary: parallel.Map fans the cells of a figure across a bounded
// pool of worker goroutines and writes each result into its
// cell's index slot, so the aggregation order — and therefore the
// rendered table — is byte-identical to a serial run at every width.
// Parallelism is between kernels, never inside one; within a cell the
// simulation stays the deterministic cooperative schedule it always
// was. internal/bench's TestExperiments renders every registry
// experiment serially and untraced, then at width 4 traced, and
// compares the bytes; CI repeats it under the race detector.
//
// The width is the last parallel.SetWidth call (cb-bench's -parallel
// flag), else GOMAXPROCS. At width 1 the pool is
// bypassed and cells run inline on the calling goroutine — literally
// the old serial loop, panics included. Width does not change any
// simulated metric; it only divides wall-clock time by the number of
// cells that can run at once. A panic in any cell propagates after the
// pool drains, lowest cell index first, again independent of width.
//
// Cross-cell isolation is part of the substrate's contract: the codec
// keeps no per-call state beyond a sync.Pool of scratch buffers and a
// registry written only by init functions, the lattice payload guard is
// internally locked, and trace collectors and decode caches are
// per-cluster — so concurrent cells cannot bleed statistics or state
// into each other.
//
// # Measuring
//
// The repository's benchmark lives in benchmark/ (a Go module of its
// own; BENCHMARK.json at the root declares its workloads and metrics,
// benchmark/README.md explains them). It builds from the checkout and
// runs four workloads that each load a different set of layers:
//
//	bash benchmark/run.sh --workload all --seed 1 --out new.json
//	bash benchmark/run.sh --compare old.json new.json
//	bash benchmark/run.sh --workload hot-open --trace 1   # per-layer split
//	go test -C benchmark ./...                            # its own tests
//
// Every number names its clock: host (CPU seconds, allocations, live
// heap — what the harness costs) or simulated (p50/p99 latency,
// requests per second — what the reproduced system does). A change
// meant only to simplify or speed the harness must leave every
// simulated number identical; --compare prints better/within/worse per
// workload and metric against the bounds in BENCHMARK.json and exits
// non-zero on a regression.
//
// See examples/ for complete programs and EXPERIMENTS.md for the
// paper-reproduction results.
package cloudburst
