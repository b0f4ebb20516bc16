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
type Consistency = core.Mode

// The five consistency levels evaluated in §6.2, plus Transactional.
const (
	// LWW is last-writer-wins eventual consistency (the default).
	LWW = core.LWW
	// RepeatableRead is distributed session repeatable read.
	RepeatableRead = core.DSRR
	// SingleKeyCausal tracks causal order per key (siblings preserved).
	SingleKeyCausal = core.SK
	// MultiKeyCausal maintains a causal cut per cache (bolt-on).
	MultiKeyCausal = core.MK
	// Causal is distributed session causal consistency — the strongest
	// level, holding across every machine a DAG touches.
	Causal = core.DSC
	// Transactional layers atomic multi-key commit on LWW: requests
	// invoked WithTxn buffer their writes and commit them via two-phase
	// commit across the storage nodes, so either every write lands or
	// none does — across crashes. Requests without WithTxn behave as in
	// LWW. See the "Transactions" section in the package docs.
	Transactional = core.TXN
)

// Ctx is the per-invocation handle passed to functions: the paper's
// Table 1 object API (Get/Put/Send/Recv/ID) plus Compute for modeling
// CPU work. Table 1's delete is not offered: a removal fanned out to
// every owner is not a lattice merge, so a replica that missed it would
// hand the value back; it returns as a tombstone write (ROADMAP 17(c)).
// A Ctx is valid until the function returns; the executor thread reuses
// it for its next invocation.
type Ctx = executor.Ctx

// Function is a registered Cloudburst function body. Its Ctx and args
// slice are valid until it returns; keep neither.
type Function = executor.Function

// DAG is a registered composition of functions (§3), a chain: each
// function's result flows automatically into the next, as its last
// argument.
type DAG = dag.DAG

// LinearDAG builds the chain f1 → f2 → ... → fn.
func LinearDAG(name string, functions ...string) *DAG { return dag.Linear(name, functions...) }

// Config sizes a Cloudburst deployment; see DefaultConfig.
type Config = cluster.Config

// DefaultConfig returns a small LWW-mode deployment.
func DefaultConfig() Config { return cluster.DefaultConfig() }

// Cluster is a running Cloudburst deployment (simulated datacenter,
// real protocols). Create with NewCluster, release with Close.
type Cluster struct {
	in *cluster.Cluster
}

// NewCluster boots a deployment.
func NewCluster(cfg Config) *Cluster {
	if cfg.Trace == nil && traceAll {
		// The hook allocates a fresh collector per cluster rather than
		// sharing one: collectors are kernel-local (not locked), and the
		// parallel runner boots clusters concurrently.
		cfg.Trace = trace.New()
	}
	return &Cluster{in: cluster.New(cfg)}
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
