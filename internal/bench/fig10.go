package bench

import (
	"fmt"
	"math/rand"
	"time"

	cb "cloudburst"
	"cloudburst/internal/fault"
	"cloudburst/internal/trace"
)

// Fig10FailureConfig parameterizes the §4.5 performance-under-failure
// experiment: steady closed-loop DAG load, one executor VM killed
// mid-run, its replacement spun up later, and the latency timeline
// tabulated in one-second buckets before/during/after recovery.
type Fig10FailureConfig struct {
	VMs      int           // executor VMs (×3 threads each)
	Clients  int           // closed-loop clients
	Compute  time.Duration // per-request simulated work
	Deadline time.Duration // per-request §4.5 re-execution deadline (wire Deadline)
	Crash
	Seed int64
	// Trace, when set, is threaded through as the cluster's span
	// collector — fig14 runs this scenario traced to attribute the
	// recovery spike. CPU-side only: the timeline and every latency are
	// byte-identical with it set or nil.
	Trace *trace.Collector
}

// Fig10FailureQuick returns CI-friendly parameters.
func Fig10FailureQuick() Fig10FailureConfig {
	return Fig10FailureConfig{
		VMs: 4, Clients: 12,
		Compute: 40 * time.Millisecond, Deadline: 3 * time.Second,
		Crash: Crash{
			KillAt: 25 * time.Second, RestFor: 20 * time.Second,
			VMSpinUp: 10 * time.Second, RunFor: 90 * time.Second,
		},
		Seed: 43,
	}
}

// Fig10FailurePaper returns a full-scale configuration (the paper kills
// one of its VMs ten minutes into a steady run; scaled here to keep the
// full sweep in minutes of real time).
func Fig10FailurePaper() Fig10FailureConfig {
	return Fig10FailureConfig{
		VMs: 12, Clients: 60,
		Compute: 40 * time.Millisecond, Deadline: 4 * time.Second,
		Crash: Crash{
			KillAt: 60 * time.Second, RestFor: 60 * time.Second,
			VMSpinUp: 30 * time.Second, RunFor: 240 * time.Second,
		},
		Seed: 43,
	}
}

// Fig10Bucket is one second of the latency timeline.
type Fig10Bucket struct {
	AtS  float64
	N    int
	P50  float64 // milliseconds
	P99  float64
	Errs int
}

// Fig10FailureResult is the §4.5 figure: phase digests, the 1s-bucket
// timeline, and the fault/recovery bookkeeping aligned with it.
type Fig10FailureResult struct {
	CrashOutcome
	Buckets      []Fig10Bucket
	RecoveredAtS float64 // when the replacement VM joined
	// PeakBucketP99 is the worst 1s-bucket p99 (ms) inside the failure
	// window — the recovery spike the §4.5 figure is about, which the
	// whole-phase digest dilutes (only the requests in flight at the
	// kill ride the re-execution path).
	PeakBucketP99 float64
}

// Print renders the phase table, a downsampled timeline, and the fault
// log.
func (r Fig10FailureResult) Print() string {
	out := Table("Figure 10: performance under failure (§4.5)", LatencyHeader,
		SummaryRows([]Summary{r.Pre, r.During, r.Post}))
	rows := make([][]string, 0, len(r.Buckets))
	step := len(r.Buckets)/30 + 1
	for i := 0; i < len(r.Buckets); i += step {
		b := r.Buckets[i]
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", b.AtS),
			fmt.Sprintf("%d", b.N),
			fmt.Sprintf("%.2f", b.P50),
			fmt.Sprintf("%.2f", b.P99),
			fmt.Sprintf("%d", b.Errs),
		})
	}
	out += Table("latency timeline (1s buckets)", []string{"t(s)", "n", "p50(ms)", "p99(ms)", "errs"}, rows)
	out += fmt.Sprintf("completed %d, failed %d, re-executions %d, recovered at t=%.0fs, peak bucket p99 %.0fms\n",
		r.Completed, r.Failed, r.Reexecutions, r.RecoveredAtS, r.PeakBucketP99)
	for _, e := range r.Timeline {
		out += "  fault: " + e + "\n"
	}
	return out
}

// RunFig10Failure drives the experiment: closed-loop clients, a fault
// plan that kills one executor VM mid-run and restarts it, and
// per-completion latency samples aligned against the injector timeline.
func RunFig10Failure(cfg Fig10FailureConfig) Fig10FailureResult {
	ccfg := crashCluster(cfg.Seed, cfg.VMs, cfg.VMSpinUp, 5*time.Second)
	fixedFleet(&ccfg)
	ccfg.Trace = cfg.Trace
	c := cb.NewCluster(ccfg)
	defer c.Close()
	in := c.Internal()

	// Pure compute: requests spread over the pinned threads via the
	// scheduler's least-recently-assigned policy, so the killed VM holds
	// a proportional share of in-flight requests.
	if err := c.RegisterFunction("ff", func(ctx *cb.Ctx, args []any) (any, error) {
		ctx.Compute(cfg.Compute)
		return len(args), nil
	}); err != nil {
		panic(err)
	}
	// Pin the function on every thread: the victim VM then carries a
	// proportional share of in-flight requests when it dies, and the
	// monitor re-pins the replacement's threads after recovery.
	if err := c.RegisterDAG(cb.LinearDAG("ff-dag", "ff"), ccfg.MinPinned); err != nil {
		panic(err)
	}
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second) })

	inj, load := cfg.run(c, cfg.plan(in, "fig10", false), cfg.Clients, func(_ int, cl *cb.Client) request {
		return func() func() error {
			fut := cl.InvokeDAG("ff-dag", nil, cb.WithTimeout(cfg.Deadline))
			return func() error { _, err := fut.Wait(); return err }
		}
	})
	res := Fig10FailureResult{CrashOutcome: load.outcome(in, inj), RecoveredAtS: load.recoverAt().Seconds()}
	res.Buckets, res.PeakBucketP99 = load.timeline(load.killAt(), load.recoverAt())
	return res
}

// --- state lifecycle: cold vs warm recovery, rolling upgrade -------------

// Fig10LifecycleConfig parameterizes the state-lifecycle extension of
// the §4.5 figure: a data-reading workload (every request resolves a KVS
// reference through the co-located cache) with one VM crashed mid-run,
// comparing a cold replacement (empty cache, every request refaults from
// Anna) against a warm one (cache restored from a peer's snapshots via
// the recorded WarmSeed), plus a rolling-upgrade timeline.
type Fig10LifecycleConfig struct {
	VMs        int
	Clients    int
	Keys       int // working-set size
	ValueBytes int // per-key payload (drives the refault cost)
	// Crash times each scenario's load; the rolling upgrade starts at
	// KillAt.
	Crash
	SpikeWin time.Duration // post-recovery window the spike is measured in
	Seed     int64
}

const (
	lifecycleCompute    = 2 * time.Millisecond // per-request simulated work
	lifecycleDeadline   = 3 * time.Second      // §4.5 re-execution deadline (wire Deadline)
	lifecycleRollSettle = 4 * time.Second      // per-VM settle grace in the rolling upgrade
)

// Fig10LifecycleQuick returns CI-friendly parameters. The value size is
// chosen so a refault from Anna (~25ms: storage serve + transfer) dwarfs
// the steady request cost (~2ms compute served from the local cache) —
// the regime where cache state matters, per §6.1.
func Fig10LifecycleQuick() Fig10LifecycleConfig {
	return Fig10LifecycleConfig{
		VMs: 3, Clients: 6, Keys: 24, ValueBytes: 6 << 20,
		Crash: Crash{
			KillAt: 15 * time.Second, RestFor: 5 * time.Second,
			VMSpinUp: 8 * time.Second, RunFor: 80 * time.Second,
		},
		SpikeWin: 12 * time.Second, Seed: 47,
	}
}

// Fig10LifecyclePaper returns a heavier configuration for -full runs.
func Fig10LifecyclePaper() Fig10LifecycleConfig {
	cfg := Fig10LifecycleQuick()
	cfg.VMs, cfg.Clients, cfg.Keys = 4, 10, 40
	cfg.KillAt, cfg.RunFor = 30*time.Second, 180*time.Second
	cfg.VMSpinUp = 20 * time.Second
	return cfg
}

// LifecycleRun is one scenario's timeline and digests.
type LifecycleRun struct {
	Name string
	CrashOutcome
	SpikeP99   float64 // peak 1s-bucket p99 (ms) in the measured window
	WarmFilled int64   // keys restored by the warm handoff (warm runs)
}

// Fig10LifecycleResult is the figure: cold vs warm recovery plus the
// rolling-upgrade timeline.
type Fig10LifecycleResult struct {
	Cold    LifecycleRun
	Warm    LifecycleRun
	Rolling LifecycleRun
	// SpikeRatio is cold recovery-spike p99 over warm — the headline
	// number (the warm handoff should win by roughly an order of
	// magnitude).
	SpikeRatio float64
	// RollingPeakRatio is the rolling upgrade's worst bucket p99 over its
	// own steady p99 — how bounded the upgrade's latency impact stays.
	RollingPeakRatio float64
}

// Print renders the three timelines and the headline ratios.
func (r Fig10LifecycleResult) Print() string {
	out := Table("Figure 10b: state lifecycle — cold vs warm recovery, rolling upgrade",
		[]string{"scenario", "steady p99(ms)", "spike p99(ms)", "warm-filled", "completed", "failed"},
		[][]string{
			{r.Cold.Name, fmt.Sprintf("%.2f", r.Cold.Pre.P99), fmt.Sprintf("%.2f", r.Cold.SpikeP99), "-", fmt.Sprintf("%d", r.Cold.Completed), fmt.Sprintf("%d", r.Cold.Failed)},
			{r.Warm.Name, fmt.Sprintf("%.2f", r.Warm.Pre.P99), fmt.Sprintf("%.2f", r.Warm.SpikeP99), fmt.Sprintf("%d", r.Warm.WarmFilled), fmt.Sprintf("%d", r.Warm.Completed), fmt.Sprintf("%d", r.Warm.Failed)},
			{r.Rolling.Name, fmt.Sprintf("%.2f", r.Rolling.Pre.P99), fmt.Sprintf("%.2f", r.Rolling.SpikeP99), fmt.Sprintf("%d", r.Rolling.WarmFilled), fmt.Sprintf("%d", r.Rolling.Completed), fmt.Sprintf("%d", r.Rolling.Failed)},
		})
	out += fmt.Sprintf("cold/warm recovery-spike ratio %.1fx, rolling peak/steady ratio %.1fx\n",
		r.SpikeRatio, r.RollingPeakRatio)
	for _, run := range []LifecycleRun{r.Cold, r.Warm, r.Rolling} {
		for _, e := range run.Timeline {
			out += "  [" + run.Name + "] fault: " + e + "\n"
		}
	}
	return out
}

// RunFig10Lifecycle runs the three scenarios on identically-seeded
// clusters: cold restart, warm restart, rolling upgrade.
func RunFig10Lifecycle(cfg Fig10LifecycleConfig) Fig10LifecycleResult {
	var r Fig10LifecycleResult
	r.Cold = runLifecycleScenario(cfg, "cold-restart", false, false)
	r.Warm = runLifecycleScenario(cfg, "warm-restart", true, false)
	r.Rolling = runLifecycleScenario(cfg, "rolling-upgrade", true, true)
	if r.Warm.SpikeP99 > 0 {
		r.SpikeRatio = r.Cold.SpikeP99 / r.Warm.SpikeP99
	}
	if r.Rolling.Pre.P99 > 0 {
		r.RollingPeakRatio = r.Rolling.SpikeP99 / r.Rolling.Pre.P99
	}
	return r
}

func runLifecycleScenario(cfg Fig10LifecycleConfig, name string, warm, rolling bool) LifecycleRun {
	ccfg := crashCluster(cfg.Seed, cfg.VMs, cfg.VMSpinUp, 4*time.Second)
	ccfg.DAGTimeout = 4 * time.Second
	// Random placement isolates the cache-state effect this figure is
	// about: under locality routing a cold replacement scores zero on
	// every reference and is simply starved until it warms organically —
	// the fleet runs a VM short either way. Random placement hands the
	// replacement its traffic share immediately, which is exactly the
	// recovery path the warm handoff accelerates.
	ccfg.RandomScheduling = true
	c := cb.NewCluster(ccfg)
	defer c.Close()
	in := c.Internal()

	if err := c.RegisterFunction("wf", func(ctx *cb.Ctx, args []any) (any, error) {
		ctx.Compute(lifecycleCompute)
		b, _ := args[0].([]byte)
		return len(b), nil
	}); err != nil {
		panic(err)
	}

	// Preload the working set, then warm every cache with one grouped
	// prefetch per VM, so the pre-fault fleet serves all reads locally —
	// the state a long-running deployment is in when a VM dies.
	keys := make([]string, cfg.Keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("ws/%d", i)
	}
	c.Run(func(cl *cb.Client) {
		val := make([]byte, cfg.ValueBytes)
		for i := range val {
			val[i] = byte(i)
		}
		for _, k := range keys {
			if err := cl.Put(k, val); err != nil {
				panic(err)
			}
		}
		for _, h := range in.VMs() {
			h.Cache.Prefetch(keys)
		}
		cl.Sleep(3 * time.Second)
	})

	var plan *fault.Plan
	if rolling {
		plan = fault.NewPlan(name).At(cfg.KillAt, fault.RollingRestart{Drain: 6 * time.Second, Settle: lifecycleRollSettle})
	} else {
		plan = cfg.plan(in, name, warm)
	}
	inj, load := cfg.run(c, plan, cfg.Clients, func(i int, cl *cb.Client) request {
		rng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(i)))
		return func() func() error {
			key := keys[rng.Intn(len(keys))]
			fut := cl.Invoke("wf", []any{cb.Ref(key)}, cb.WithTimeout(lifecycleDeadline))
			return func() error { _, err := fut.Wait(); return err }
		}
	})
	run := LifecycleRun{Name: name, CrashOutcome: load.outcome(in, inj)}
	for _, h := range in.VMs() {
		run.WarmFilled += h.Cache.Stats.WarmFilledKeys
	}

	// The spike window starts when the replacement joins (the cold
	// refault storm happens after recovery, not during the outage). The
	// rolling scenario has no single recovery instant — its window is
	// the whole upgrade, from the first drain to the end of the run.
	from, to := load.recoverAt(), load.recoverAt()+cfg.SpikeWin
	if rolling {
		from, to = load.killAt(), load.start+cfg.RunFor
	}
	_, run.SpikeP99 = load.timeline(from, to)
	return run
}
