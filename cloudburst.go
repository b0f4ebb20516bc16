package cloudburst

import (
	"fmt"
	"time"

	"cloudburst/internal/cluster"
	"cloudburst/internal/core"
	"cloudburst/internal/dag"
	"cloudburst/internal/executor"
	"cloudburst/internal/scheduler"
	"cloudburst/internal/trace"
	"cloudburst/internal/vtime"
)

// Consistency selects the cache-consistency level (§5 of the paper).
type Consistency int

// The five consistency levels evaluated in §6.2, plus Transactional.
const (
	// LWW is last-writer-wins eventual consistency (the default).
	LWW Consistency = iota
	// RepeatableRead is distributed session repeatable read.
	RepeatableRead
	// SingleKeyCausal tracks causal order per key (siblings preserved).
	SingleKeyCausal
	// MultiKeyCausal maintains a causal cut per cache (bolt-on).
	MultiKeyCausal
	// Causal is distributed session causal consistency — the strongest
	// level, holding across every machine a DAG touches.
	Causal
	// Transactional layers atomic multi-key commit on LWW: requests
	// invoked WithTxn buffer their writes and commit them via two-phase
	// commit across the storage nodes, so either every write lands or
	// none does — across crashes. Requests without WithTxn behave as in
	// LWW. See the "Transactions" section in the package docs.
	Transactional
)

func (c Consistency) mode() core.Mode {
	switch c {
	case RepeatableRead:
		return core.DSRR
	case SingleKeyCausal:
		return core.SK
	case MultiKeyCausal:
		return core.MK
	case Causal:
		return core.DSC
	case Transactional:
		return core.TXN
	default:
		return core.LWW
	}
}

// String implements fmt.Stringer.
func (c Consistency) String() string { return c.mode().String() }

// Ctx is the per-invocation handle passed to functions: the paper's
// Table 1 object API (Get/Put/Delete/Send/Recv/ID) plus Compute for
// modeling CPU work.
type Ctx = executor.Ctx

// Function is a registered Cloudburst function body.
type Function = executor.Function

// DAG is a registered composition of functions; results flow from
// producers to consumers automatically (§3).
type DAG = dag.DAG

// LinearDAG builds the common chain f1 → f2 → ... → fn.
func LinearDAG(name string, functions ...string) *DAG { return dag.Linear(name, functions...) }

// NewDAG builds an arbitrary DAG from vertices and edges.
func NewDAG(name string, functions []string, edges [][2]string) *DAG {
	return dag.New(name, functions, edges)
}

// Config sizes a Cloudburst deployment. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Mode is the consistency level for all caches.
	Mode Consistency
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

	// Autoscaler tuning (zero values keep the §4.4 defaults).
	VMSpinUp   time.Duration // EC2-like instance boot delay
	ScaleUpVMs int           // VMs added per saturation event
	MaxVMs     int           // node-count ceiling
	MinPinned  int           // replica floor per function

	// Failure-handling tuning (zero values keep the §4.5 defaults).
	// DAGTimeout is the global re-execution timeout for in-flight DAGs
	// (per-request WithTimeout deadlines override it on the wire);
	// StaleAfter is how long an executor's last metrics report keeps it
	// in scheduling — the failure-detection horizon.
	DAGTimeout time.Duration
	StaleAfter time.Duration

	// Control-plane scaling knobs (fig13's subject matter; zero values
	// keep dispatch free and the monitor unsharded).
	// SchedulerDispatchCost models each scheduler's per-request CPU
	// time; a positive cost caps one scheduler at ~1/cost req/s and the
	// serial dispatcher queues the excess.
	SchedulerDispatchCost time.Duration
	// MonitorShards > 1 partitions the monitor's metric-registry scan
	// across that many concurrent scanner endpoints; the policy inputs
	// are the same at any shard count.
	MonitorShards int

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
}

// DefaultConfig returns a small LWW-mode deployment.
func DefaultConfig() Config {
	return Config{
		Mode:         LWW,
		VMs:          2,
		ThreadsPerVM: 3,
		Schedulers:   1,
		AnnaNodes:    3,
		Replication:  1,
		Seed:         1,
	}
}

// Cluster is a running Cloudburst deployment (simulated datacenter,
// real protocols). Create with NewCluster, release with Close.
type Cluster struct {
	in  *cluster.Cluster
	cfg Config
}

// NewClusterWithTracer boots a deployment whose executors report every
// read and write to tracer — the consistency-audit hook behind Table 2.
func NewClusterWithTracer(cfg Config, tracer executor.Tracer) *Cluster {
	c := &Cluster{cfg: cfg}
	c.in = cluster.New(c.internalConfig(func(icfg *cluster.Config) { icfg.Tracer = tracer }))
	return c
}

// NewCluster boots a deployment.
func NewCluster(cfg Config) *Cluster {
	c := &Cluster{cfg: cfg}
	c.in = cluster.New(c.internalConfig(nil))
	return c
}

// internalConfig maps the public configuration onto the internal one;
// mutate, when non-nil, applies final adjustments.
func (c *Cluster) internalConfig(mutate func(*cluster.Config)) cluster.Config {
	cfg := c.cfg
	icfg := cluster.DefaultConfig(cfg.Mode.mode())
	icfg.Seed = cfg.Seed
	if cfg.VMs > 0 {
		icfg.InitialVMs = cfg.VMs
	}
	if cfg.ThreadsPerVM > 0 {
		icfg.ThreadsPerVM = cfg.ThreadsPerVM
	}
	if cfg.Schedulers > 0 {
		icfg.Schedulers = cfg.Schedulers
	}
	if cfg.AnnaNodes > 0 {
		icfg.Anna.Nodes = cfg.AnnaNodes
	}
	if cfg.Replication > 0 {
		icfg.Anna.Replication = cfg.Replication
	}
	icfg.EnableMonitor = cfg.Autoscale
	icfg.Scheduler.RandomPolicy = cfg.RandomScheduling
	if cfg.VMSpinUp > 0 {
		icfg.VMSpinUp = cfg.VMSpinUp
	}
	if cfg.ScaleUpVMs > 0 {
		icfg.Monitor.ScaleUp = cfg.ScaleUpVMs
	}
	if cfg.MaxVMs > 0 {
		icfg.Monitor.MaxVMs = cfg.MaxVMs
	}
	if cfg.MinPinned > 0 {
		icfg.Monitor.MinPin = cfg.MinPinned
	}
	if cfg.DAGTimeout > 0 {
		icfg.Scheduler.DAGTimeout = cfg.DAGTimeout
	}
	if cfg.StaleAfter > 0 {
		icfg.Scheduler.StaleAfter = cfg.StaleAfter
	}
	if cfg.SchedulerDispatchCost > 0 {
		icfg.Scheduler.DispatchCost = cfg.SchedulerDispatchCost
	}
	if cfg.MonitorShards > 1 {
		icfg.Monitor.Shards = cfg.MonitorShards
	}
	icfg.Trace = cfg.Trace
	if icfg.Trace == nil && traceAll {
		// The hook allocates a fresh collector per cluster rather than
		// sharing one: collectors are kernel-local (not locked), and the
		// parallel runner boots clusters concurrently.
		icfg.Trace = trace.New()
	}
	icfg.Monitor.MinVMs = icfg.InitialVMs
	if mutate != nil {
		mutate(&icfg)
	}
	return icfg
}

// Internal exposes the underlying deployment for benchmarks and tests
// inside this module that need non-public knobs.
func (c *Cluster) Internal() *cluster.Cluster { return c.in }

// Trace returns the cluster's span collector (nil when tracing is off).
func (c *Cluster) Trace() *trace.Collector { return c.in.Trace }

// traceAll, when true, gives every cluster booted without an explicit
// Config.Trace its own private collector. It exists for the
// zero-perturbation diff tests: a whole figure can run traced without
// per-figure config plumbing, and its tables must come out
// byte-identical either way.
var traceAll bool

// SetDefaultTracing toggles tracing for clusters booted without an
// explicit Config.Trace. Not safe to flip while clusters are running;
// set it before booting, restore it after.
func SetDefaultTracing(on bool) { traceAll = on }

// Close stops every simulation process; the cluster is unusable
// afterwards.
func (c *Cluster) Close() { c.in.Close() }

// Now reports the current virtual time since boot.
func (c *Cluster) Now() time.Duration { return time.Duration(c.in.K.Now()) }

// Run executes fn as an in-simulation workload with a fresh client.
// Virtual time only advances inside Run calls; background daemons pick
// up where they left off on the next call.
func (c *Cluster) Run(fn func(cl *Client)) {
	c.in.K.Run("workload", func() { fn(c.newClient()) })
}

// RunN runs n concurrent workload processes, each with its own client,
// and returns when all finish — the shape of every multi-client
// experiment in §6.
func (c *Cluster) RunN(n int, fn func(i int, cl *Client)) {
	c.in.K.Run("workload", func() {
		wg := vtime.NewWaitGroup(c.in.K)
		for i := 0; i < n; i++ {
			i := i
			cl := c.newClient()
			wg.Add(1)
			c.in.K.Go(fmt.Sprintf("client-%d", i), func() {
				defer wg.Done()
				fn(i, cl)
			})
		}
		wg.Wait()
	})
}

// RegisterFunction installs a function body cluster-wide and registers
// its name through a scheduler (metadata stored in Anna, §4.3).
func (c *Cluster) RegisterFunction(name string, fn Function) error {
	c.in.Registry.Register(name, fn)
	var err error
	c.in.K.Run("register-fn", func() {
		cl := c.newClient()
		resp, callErr := cl.ep.Call(c.in.PickScheduler(),
			scheduler.RegisterFunctionReq{Name: name}, 64, cl.Timeout)
		if callErr != nil {
			err = callErr
			return
		}
		if r := resp.(scheduler.RegisterResp); !r.OK {
			err = fmt.Errorf("cloudburst: register %q: %s", name, r.Err)
		}
	})
	return err
}

// RegisterDAG registers a composition of already-registered functions.
// replicas controls how many executor threads each function is pinned
// on initially (§4.3); the autoscaler adjusts it afterwards if enabled.
func (c *Cluster) RegisterDAG(d *DAG, replicas int) error {
	var err error
	c.in.K.Run("register-dag", func() {
		cl := c.newClient()
		resp, callErr := cl.ep.Call(c.in.PickScheduler(),
			scheduler.RegisterDAGReq{DAG: *d, Replicas: replicas}, 256, cl.Timeout)
		if callErr != nil {
			err = callErr
			return
		}
		if r := resp.(scheduler.RegisterResp); !r.OK {
			err = fmt.Errorf("cloudburst: register DAG %q: %s", d.Name, r.Err)
		}
	})
	return err
}
