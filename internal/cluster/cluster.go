// Package cluster assembles a complete Cloudburst deployment on the
// virtual-time kernel: an Anna KVS cluster, function-execution VMs (each
// several executor threads plus a co-located cache), one or more
// schedulers behind a random load-balancer, and the monitoring system.
// It also plays the role the paper delegates to Kubernetes (§4): booting
// VMs (with an EC2-like spin-up delay), tearing them down, and failure
// injection.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/cache"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/dag"
	"cloudburst/internal/executor"
	"cloudburst/internal/hook"
	"cloudburst/internal/lattice"
	"cloudburst/internal/monitor"
	"cloudburst/internal/scheduler"
	"cloudburst/internal/simnet"
	"cloudburst/internal/trace"
	"cloudburst/internal/vtime"
)

// link is the datacenter network's default link: same-AZ, ~200µs with a
// light tail, 10 Gbps.
var link = simnet.Link{
	Latency:   simnet.LogNormal{Med: 200 * time.Microsecond, Sigma: 0.25},
	Bandwidth: 1.25e9,
}

// Config sizes a Cloudburst deployment. The zero value is not usable;
// start from DefaultConfig. A field set to zero means zero, except that
// New boots at least one VM, one scheduler and one Anna node, and three
// threads per VM when ThreadsPerVM is below one.
type Config struct {
	// Mode is the consistency level for all caches.
	Mode core.Mode
	// VMs is the initial number of function-execution VMs.
	VMs int
	// ThreadsPerVM is the executor-thread count per VM (3 in the paper).
	ThreadsPerVM int
	// Schedulers is the scheduler-node count.
	Schedulers int
	// AnnaNodes and Replication size the storage tier.
	AnnaNodes   int
	Replication int
	// Autoscale enables the monitoring system's scaling policies.
	Autoscale bool
	// Seed fixes the simulation's random source; equal seeds give
	// byte-identical runs.
	Seed int64
	// RandomScheduling disables the locality-aware policy (ablation).
	RandomScheduling bool

	// Autoscaler tuning (§4.4).
	VMSpinUp   time.Duration // EC2-like instance boot delay
	ScaleUpVMs int           // VMs added per saturation event
	MaxVMs     int           // node-count ceiling
	MinPinned  int           // replica floor per function

	// Failure-handling tuning (§4.5).
	// DAGTimeout is the global re-execution timeout for in-flight DAGs
	// (per-request WithTimeout deadlines override it on the wire);
	// StaleAfter is how long an executor's last metrics report keeps it
	// in scheduling — the failure-detection horizon.
	DAGTimeout time.Duration
	StaleAfter time.Duration

	// Control-plane scaling knobs (fig13's subject matter).
	// SchedulerDispatchCost models each scheduler's per-request CPU
	// time; a positive cost caps one scheduler at ~1/cost req/s and the
	// serial dispatcher queues the excess. Zero keeps dispatch free.
	SchedulerDispatchCost time.Duration

	// Trace, when set, is this cluster's span collector for the
	// virtual-time tracing plane: every request's path (client dispatch,
	// scheduler queue, executor compute, cache and Anna reads, DAG hops,
	// retries) is recorded as spans on the virtual clock, ready for
	// critical-path analysis and export. Tracing is CPU-side only — it
	// never adds wire bytes, sleeps, or random draws, so a traced run's
	// simulation schedule is byte-identical to an untraced one. The
	// handle is per-cluster for parallel-runner safety. Nil disables
	// tracing at zero cost.
	Trace *trace.Collector
	// Tracer, when set, is told every read and write the executors make:
	// the consistency-audit hook behind Table 2 (§6.2.2).
	Tracer executor.Tracer
}

// DefaultConfig returns a small LWW-mode deployment with the paper's
// autoscaler and failure-handling defaults.
func DefaultConfig() Config {
	kv, sched, mon := anna.DefaultConfig(), scheduler.DefaultConfig(), monitor.DefaultConfig()
	return Config{
		Mode:         core.LWW,
		VMs:          2,
		ThreadsPerVM: 3,
		Schedulers:   1,
		AnnaNodes:    kv.Nodes,
		Replication:  kv.Replication,
		Seed:         1,
		VMSpinUp:     150 * time.Second, // ≈2.5 minutes in §6.1.4
		ScaleUpVMs:   mon.ScaleUp,
		MaxVMs:       mon.MaxVMs,
		MinPinned:    mon.MinPin,
		DAGTimeout:   sched.DAGTimeout,
		StaleAfter:   sched.StaleAfter,
	}
}

// VMHandle bundles one VM's components.
type VMHandle struct {
	Name    string
	Cache   *cache.Cache
	VM      *executor.VM
	Threads []*executor.Thread
	nodeIDs []simnet.NodeID    // all endpoints (threads + cache)
	eps     []*simnet.Endpoint // endpoint handles, for the generation reaper
}

// NodeIDs lists every network endpoint belonging to the VM (executor
// threads, the co-located cache, and the metrics manager) — the unit a
// fault plan partitions or degrades.
func (h *VMHandle) NodeIDs() []simnet.NodeID { return h.nodeIDs }

// Cluster is a running deployment.
type Cluster struct {
	K        *vtime.Kernel
	Net      *simnet.Network
	KV       *anna.KVS
	Registry *executor.Registry
	Monitor  *monitor.Monitor
	Trace    *trace.Collector

	cfg          Config
	hooks        *hook.Registry
	schedulers   []*scheduler.Scheduler
	routeScratch []schedRank
	vms          map[string]*VMHandle
	// vmList holds the live VMs sorted by name. addVM and removeVM
	// replace it and never write into it, so a slice VMs returned stays
	// unchanged while its caller kills or boots VMs.
	vmList     []*VMHandle
	pending    int
	nextVM     int
	nextClient int

	dagCache  map[string]*dag.DAG
	dagClient *anna.Client
	// decoded is the cluster's one decode cache, shared by the control
	// plane and every executor thread.
	decoded *core.DecodeCache
	down    map[simnet.NodeID]bool
	// gens counts replacement generations per base name.
	gens map[string]int
	// deadGens holds crashed generations' handles, by name, until
	// RestartVM replaces them and the reaper retires them (at replacement
	// boot); lifecycle is the reaper's own Anna client (its endpoint
	// outlives every VM generation).
	deadGens    map[string]*VMHandle
	lifecycle   *anna.Client
	lifecycleEP *simnet.Endpoint
}

// New boots a cluster. The initial VMs and schedulers are live
// immediately (no spin-up for the starting fleet).
func New(cfg Config) *Cluster {
	if cfg.ThreadsPerVM < 1 {
		cfg.ThreadsPerVM = 3
	}
	if cfg.Schedulers < 1 {
		cfg.Schedulers = 1
	}
	if cfg.VMs < 1 {
		cfg.VMs = 1
	}
	k := vtime.NewKernel(cfg.Seed)
	net := simnet.New(k, link)
	hooks := hook.NewRegistry()
	c := &Cluster{
		K:   k,
		Net: net,
		// The storage nodes participate in 2PC in Transactional mode
		// only; the sweep daemon stays off everywhere else so no other
		// mode's event schedule moves. Hooks are passive (no events of
		// their own) and are wired unconditionally.
		KV: anna.NewKVS(k, net, anna.Config{
			Nodes:       cfg.AnnaNodes,
			Replication: cfg.Replication,
			Node:        anna.NodeConfig{TxnSweep: cfg.Mode == core.TXN, Hooks: hooks},
		}),
		Registry: executor.NewRegistry(),
		Trace:    cfg.Trace,
		cfg:      cfg,
		vms:      make(map[string]*VMHandle),
		dagCache: make(map[string]*dag.DAG),
		decoded:  core.NewDecodeCache(),
		down:     make(map[simnet.NodeID]bool),
		gens:     make(map[string]int),
		deadGens: make(map[string]*VMHandle),
		hooks:    hooks,
	}
	c.dagClient = c.KV.NewClient(net.AddNode("dag-resolver"), 0)
	c.lifecycleEP = net.AddNode("lifecycle-0")
	c.lifecycle = c.KV.NewClient(c.lifecycleEP, 0)

	for i := 0; i < cfg.VMs; i++ {
		c.bootVM()
	}
	// The schedulers and the monitor share the executors' decode cache:
	// each publication is decoded once per cluster, not once per poll
	// tick per scheduler.
	scfg := scheduler.Config{
		StaleAfter:   cfg.StaleAfter,
		DAGTimeout:   cfg.DAGTimeout,
		RandomPolicy: cfg.RandomScheduling,
		DispatchCost: cfg.SchedulerDispatchCost,
		Decoded:      c.decoded,
		Trace:        cfg.Trace,
	}
	// The scheduler group is static for the cluster's lifetime, so the
	// monitor can validate its cached sched-registry listing against
	// this exact key set and skip the per-tick listing read, and each
	// scheduler knows its rank in the group, which names its share of
	// the VMs.
	var schedKeys []string
	for i := 0; i < cfg.Schedulers; i++ {
		id := simnet.NodeID(fmt.Sprintf("sched-%d", i))
		ep := net.AddNode(id)
		s := scheduler.New(k, ep, c.KV.NewClient(ep, 0), scfg, i, cfg.Schedulers)
		s.Start()
		c.schedulers = append(c.schedulers, s)
		schedKeys = append(schedKeys, core.SchedMetricsKey(string(id)))
	}
	sort.Strings(schedKeys)
	if cfg.Autoscale {
		ep := net.AddNode("monitor-0")
		c.Monitor = monitor.New(k, ep, c.KV.NewClient(ep, 0), c, monitor.Config{
			MinVMs:    cfg.VMs,
			MaxVMs:    cfg.MaxVMs,
			ScaleUp:   cfg.ScaleUpVMs,
			MinPin:    cfg.MinPinned,
			Decoded:   c.decoded,
			SchedKeys: schedKeys,
		})
		c.Monitor.Start()
	}
	return c
}

// Close terminates all simulation processes. The cluster is unusable
// afterwards.
func (c *Cluster) Close() { c.K.Stop() }

// Schedulers exposes the scheduler handles (tests, reports).
func (c *Cluster) Schedulers() []*scheduler.Scheduler { return c.schedulers }

// bootVM constructs and starts one fresh-numbered VM synchronously.
func (c *Cluster) bootVM() *VMHandle {
	name := fmt.Sprintf("vm%d", c.nextVM)
	c.nextVM++
	return c.bootVMNamed(name)
}

// bootVMNamed constructs and starts one VM under the given name.
func (c *Cluster) bootVMNamed(name string) *VMHandle {
	cacheEP := c.Net.AddNode(simnet.NodeID("cache-" + name))
	// The cache moves multi-MB objects; give its KVS client headroom
	// beyond the default RPC timeout.
	// A request's snapshots may outlive it by twice the longest a
	// scheduler tracks one: a client that re-routes a request to the next
	// scheduler shard starts its tracking over.
	ch := cache.New(c.K, cacheEP, c.KV.NewClient(cacheEP, 2*time.Second), name, cache.Config{
		Mode:          c.cfg.Mode,
		Trace:         c.cfg.Trace,
		MaxRequestAge: 2 * scheduler.RequestLifetime(c.cfg.DAGTimeout),
	})
	ch.Start()

	h := &VMHandle{Name: name, Cache: ch}
	h.nodeIDs = append(h.nodeIDs, cacheEP.ID())
	h.eps = append(h.eps, cacheEP)
	for i := 0; i < c.cfg.ThreadsPerVM; i++ {
		id := simnet.NodeID(fmt.Sprintf("exec-%s-%d", name, i))
		ep := c.Net.AddNode(id)
		h.eps = append(h.eps, ep)
		t := executor.NewThread(c.K, ep, name, executor.Deps{
			Cache:    ch,
			Anna:     c.KV.NewClient(ep, 0),
			Registry: c.Registry,
			Tracer:   c.cfg.Tracer,
			Alive:    c.Alive,
			DAGFor:   c.dagFor,
			Trace:    c.Trace,
			Hooks:    c.hooks,
			TxnRing:  c.KV.Ring(),
			Decoded:  c.decoded,
		})
		h.Threads = append(h.Threads, t)
		h.nodeIDs = append(h.nodeIDs, id)
	}
	metricsEP := c.Net.AddNode(simnet.NodeID("vmmgr-" + name))
	h.VM = executor.NewVM(c.K, name, h.Threads, c.KV.NewClient(metricsEP, 0))
	h.nodeIDs = append(h.nodeIDs, metricsEP.ID())
	h.eps = append(h.eps, metricsEP)
	h.VM.Start()
	c.addVM(h)
	return h
}

// addVM adds h to the live inventory.
func (c *Cluster) addVM(h *VMHandle) {
	c.vms[h.Name] = h
	i, _ := slices.BinarySearchFunc(c.vmList, h.Name, func(v *VMHandle, name string) int {
		return strings.Compare(v.Name, name)
	})
	c.vmList = slices.Clip(slices.Concat(c.vmList[:i], []*VMHandle{h}, c.vmList[i:]))
}

// removeVM drops the live VM h from the inventory.
func (c *Cluster) removeVM(h *VMHandle) {
	delete(c.vms, h.Name)
	i := slices.Index(c.vmList, h)
	c.vmList = slices.Clip(slices.Concat(c.vmList[:i], c.vmList[i+1:]))
}

// dagFor resolves DAG topologies for executors, memoizing Anna lookups.
func (c *Cluster) dagFor(name string) (*dag.DAG, bool) {
	if d, ok := c.dagCache[name]; ok {
		return d, true
	}
	d, ok := core.Fetch[dag.DAG](c.dagClient, c.decoded, core.DAGKey(name))
	if !ok {
		return nil, false
	}
	c.dagCache[name] = &d
	return &d, true
}

// Alive reports whether a node is reachable (Ctx.Send uses it to decide
// between direct messaging and the Anna inbox fallback): a killed VM's
// endpoint is in down until its reap removes it from the network.
func (c *Cluster) Alive(id simnet.NodeID) bool { return !c.down[id] && c.Net.Registered(id) }

// --- monitor.ComputePool -------------------------------------------------

// AddVMs boots n VMs after the EC2-like spin-up delay (asynchronously;
// the whole batch becomes available together, which produces Figure 7's
// plateaus).
func (c *Cluster) AddVMs(n int) {
	if n <= 0 {
		return
	}
	c.pending += n
	c.K.Go("cluster/spinup", func() {
		c.K.Sleep(c.cfg.VMSpinUp)
		for i := 0; i < n; i++ {
			c.bootVM()
		}
		c.pending -= n
	})
}

// RemoveVMs deallocates up to n VMs, never below one, and returns how
// many were removed. It takes the live VMs in reverse order of their
// names as strings, so on vm0..vm11 it removes vm9 and vm8 before vm11.
func (c *Cluster) RemoveVMs(n int) int {
	names := c.vmNames()
	removed := 0
	for i := len(names) - 1; i >= 1 && removed < n; i-- {
		c.stopVM(names[i])
		removed++
	}
	return removed
}

func (c *Cluster) stopVM(name string) {
	h, ok := c.vms[name]
	if !ok {
		return
	}
	c.takeDown(h)
	// A deliberate deallocation reaps immediately: there is no replacement
	// coming to trigger it later.
	c.reapGeneration(h)
}

// DrainVM takes a VM out of new-work rotation without touching its
// processes or endpoints: its metrics publication stops, so schedulers
// drop its threads once their reports age past StaleAfter, while
// in-flight and queued work keeps completing. The drain half of a
// rolling upgrade; follow with a warm RestartVM once traffic has moved.
func (c *Cluster) DrainVM(name string) bool {
	h, ok := c.vms[name]
	if !ok {
		return false
	}
	h.VM.DrainMetrics()
	return true
}

// KillVM abruptly partitions a VM away without stopping its processes —
// the §4.5 failure model (messages to it vanish; in-flight DAGs time out
// and are re-executed). Each endpoint gets a full-drop node policy; the
// VM can later be replaced with RestartVM.
func (c *Cluster) KillVM(name string) {
	h, ok := c.vms[name]
	if !ok {
		return
	}
	c.recordWarmSeed(h)
	c.takeDown(h)
	c.deadGens[name] = h
}

// takeDown partitions every endpoint of the live VM h away and drops h
// from the inventory.
func (c *Cluster) takeDown(h *VMHandle) {
	for _, id := range h.nodeIDs {
		c.Net.SetDown(id, true)
		c.down[id] = true
	}
	c.removeVM(h)
}

// baseVMName strips replacement-generation suffixes ("vm0.r2" → "vm0").
func baseVMName(name string) string {
	if i := strings.Index(name, ".r"); i >= 0 {
		return name[:i]
	}
	return name
}

// RestartVM replaces a crashed (or still-live, which it crashes first)
// VM with a fresh instance after the spin-up delay — the recovery half
// of the §4.5 lifecycle. The replacement runs under a new generation
// name ("vm0" → "vm0.r1") with fresh endpoints and a cold cache; its
// executor threads re-register with the schedulers through the ordinary
// metrics-publication path, and the monitor re-admits the node via
// VMCount. Just before the replacement boots, the dead generation is
// reaped: its endpoints are retired, its parked processes released, and
// its ghost metric keys scrubbed from the Anna registries (so the
// replacement's registration gossips an already-clean discovery set).
//
// A warm restart adds a cache handoff: after booting, the replacement
// restores the dead generation's cached key set from a live peer cache's
// snapshots (seeded by the WarmSeed the crash recorded) and pre-pins the
// functions the dead generation served. Keys no peer holds are simply
// refaulted cold on first use.
//
// Returns the replacement's name ("" when name is neither live nor a
// crashed generation still awaiting its replacement).
func (c *Cluster) RestartVM(name string, warm bool) string {
	if _, live := c.vms[name]; live {
		c.KillVM(name)
	}
	dead := c.deadGens[name]
	if dead == nil {
		return ""
	}
	delete(c.deadGens, name)
	base := baseVMName(name)
	c.gens[base]++
	replacement := fmt.Sprintf("%s.r%d", base, c.gens[base])
	c.pending++
	c.K.Go("cluster/restart", func() {
		c.K.Sleep(c.cfg.VMSpinUp)
		c.reapGeneration(dead)
		h := c.bootVMNamed(replacement)
		if warm {
			c.warmFill(h, base)
		}
		c.pending--
	})
	return replacement
}

// --- generation reaper and warm handoff ----------------------------------

// reapGeneration retires a dead VM generation: stops its processes,
// removes its simnet endpoints (so parked dispatcher procs wake and
// exit, returning to the kernel's free pool), and scrubs its ghost
// metric keys out of the Anna discovery registries. Without the scrub,
// every crash leaves a tombstone ExecMetricsKey per thread plus a
// CacheKeysKey in the grow-only registry sets, and each monitor refresh
// multi-gets and fails to decode them forever. It also ends its cache's
// subscriptions, which would otherwise draw every later push of its keys.
func (c *Cluster) reapGeneration(h *VMHandle) {
	h.VM.Stop()
	h.Cache.Stop()
	for _, ep := range h.eps {
		// RemoveNode first: in-flight deliveries to an unknown node drop
		// harmlessly; Close then wakes any proc parked on the inbox. The
		// full-drop policy installed at kill time stays, so anything a
		// zombie process still sends keeps vanishing.
		c.Net.RemoveNode(ep.ID())
		ep.Close()
		delete(c.down, ep.ID())
	}
	threadKeys := make([]string, 0, len(h.Threads))
	for _, t := range h.Threads {
		key := core.ExecMetricsKey(string(t.ID()))
		threadKeys = append(threadKeys, key)
		c.lifecycle.Delete(key)
	}
	c.lifecycle.Delete(core.CacheKeysKey(h.Name))
	c.lifecycle.RemoveFromSet(executor.MetricListKey, threadKeys)
	c.lifecycle.RemoveFromSet(executor.CacheListKey, []string{core.CacheKeysKey(h.Name)})
	h.Cache.Unsubscribe(c.KV)
}

// recordWarmSeed snapshots what the dying generation held — its cached
// key set and pinned functions — under a per-base-name lifecycle key, so
// a later warm RestartVM can restore the working set from peers. The
// snapshot itself is taken synchronously (the handle is still intact);
// the Anna put rides its own process so KillVM stays non-blocking.
func (c *Cluster) recordWarmSeed(h *VMHandle) {
	base := baseVMName(h.Name)
	seed := core.WarmSeed{
		VM:      base,
		Keys:    h.Cache.Keys(),
		DiedAtS: c.K.Now().Seconds(),
	}
	if c.Monitor != nil {
		seed.Pinned = c.Monitor.PinsForVM(h.Name)
	}
	if len(seed.Pinned) == 0 {
		set := make(map[string]bool)
		for _, t := range h.Threads {
			for _, fn := range t.Pinned() {
				set[fn] = true
			}
		}
		for fn := range set {
			seed.Pinned = append(seed.Pinned, fn)
		}
		sort.Strings(seed.Pinned)
	}
	payload := codec.MustEncode(seed)
	ts := lattice.Timestamp{Clock: int64(c.K.Now()), Node: lattice.NodeHash(base)}
	c.K.Go("cluster/seed", func() {
		c.lifecycle.Put(core.WarmSeedKey(base), lattice.NewLWW(ts, payload))
	})
}

// warmFill restores a fresh replacement's cache from a live peer using
// the dead generation's recorded seed, then pre-pins the functions the
// dead generation served so the schedulers' locality heuristics see the
// replacement as equivalent. Missing seed or missing peers degrade to a
// cold start.
func (c *Cluster) warmFill(h *VMHandle, base string) {
	seed, ok := core.Fetch[core.WarmSeed](c.lifecycle, c.decoded, core.WarmSeedKey(base))
	if !ok {
		return
	}
	var peer simnet.NodeID
	for _, v := range c.vmList {
		if v != h {
			peer = v.Cache.ID()
			break
		}
	}
	if peer != "" && len(seed.Keys) > 0 {
		h.Cache.WarmFill(peer, seed.Keys)
	}
	for _, fn := range seed.Pinned {
		for _, t := range h.Threads {
			c.lifecycleEP.Send(t.ID(), core.PinFunction{Function: fn}, 32)
		}
	}
}

// VMCount reports live VMs.
func (c *Cluster) VMCount() int { return len(c.vms) }

// PendingVMs reports VMs still spinning up.
func (c *Cluster) PendingVMs() int { return c.pending }

// Threads lists live executor threads in deterministic order.
func (c *Cluster) Threads() []simnet.NodeID {
	var out []simnet.NodeID
	for _, h := range c.vmList {
		for _, t := range h.Threads {
			out = append(out, t.ID())
		}
	}
	return out
}

// ThreadCount reports the number of live executor threads.
func (c *Cluster) ThreadCount() int { return len(c.Threads()) }

// VMs lists live VM handles sorted by name. The slice is a shared
// snapshot and read-only: booting, stopping or killing a VM replaces the
// cluster's list and leaves this one unchanged.
func (c *Cluster) VMs() []*VMHandle { return c.vmList }

// vmNames lists live VM names in sorted order.
func (c *Cluster) vmNames() []string {
	out := make([]string, 0, len(c.vmList))
	for _, h := range c.vmList {
		out = append(out, h.Name)
	}
	return out
}

// PickScheduler returns a uniformly random scheduler id — the stateless
// cloud load balancer in front of the schedulers (§4).
func (c *Cluster) PickScheduler() simnet.NodeID {
	return c.schedulers[c.K.Rand().Intn(len(c.schedulers))].ID()
}

// SchedulerCount reports the scheduler-group size.
func (c *Cluster) SchedulerCount() int { return len(c.schedulers) }

// RouteScheduler maps a request id onto a scheduler shard by rendezvous
// (highest-random-weight) hashing: the id is scored against every
// shard, attempt 0 goes to the top-ranked shard and attempt k to the
// k'th — so retries and client re-routes walk distinct shards
// deterministically without consuming kernel randomness, and every
// party routing the same request id independently picks the same
// shard. A single-scheduler group delegates to PickScheduler, which
// consumes one kernel rand draw — keeping every existing
// single-scheduler schedule byte-identical.
func (c *Cluster) RouteScheduler(reqID string, attempt int) simnet.NodeID {
	if len(c.schedulers) == 1 {
		return c.PickScheduler()
	}
	if cap(c.routeScratch) < len(c.schedulers) {
		c.routeScratch = make([]schedRank, len(c.schedulers))
	}
	ranks := c.routeScratch[:len(c.schedulers)]
	for i, s := range c.schedulers {
		ranks[i] = schedRank{score: rendezvousScore(reqID, s.ID()), id: s.ID()}
	}
	slices.SortFunc(ranks, func(a, b schedRank) int {
		if a.score != b.score {
			return cmp.Compare(b.score, a.score)
		}
		return cmp.Compare(a.id, b.id)
	})
	return ranks[attempt%len(ranks)].id
}

// schedRank pairs a shard with its rendezvous score for one request.
type schedRank struct {
	score uint64
	id    simnet.NodeID
}

// rendezvousScore is FNV-1a over "<reqID>|<shard>", inlined to keep
// routing allocation-free on the per-request path.
func rendezvousScore(reqID string, id simnet.NodeID) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(reqID); i++ {
		h = (h ^ uint64(reqID[i])) * prime
	}
	h = (h ^ '|') * prime
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * prime
	}
	return h
}

// NewClientEndpoint allocates a fresh client network endpoint.
func (c *Cluster) NewClientEndpoint() *simnet.Endpoint {
	c.nextClient++
	return c.Net.AddNode(simnet.NodeID(fmt.Sprintf("client-%d", c.nextClient)))
}

// AnnaClientFor builds a KVS client bound to ep.
func (c *Cluster) AnnaClientFor(ep *simnet.Endpoint) *anna.Client {
	return c.KV.NewClient(ep, 0)
}

// Mode returns the cluster's consistency level.
func (c *Cluster) Mode() core.Mode { return c.cfg.Mode }

// Hooks exposes the cluster's fault-injection point-cut registry (the
// fault package arms CrashAt actions through it; protocol code fires
// the named points).
func (c *Cluster) Hooks() *hook.Registry { return c.hooks }
