package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	cb "cloudburst"
	"cloudburst/internal/audit"
	"cloudburst/internal/cluster"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/executor"
	"cloudburst/internal/fault"
	"cloudburst/internal/parallel"
	"cloudburst/internal/simnet"
	"cloudburst/internal/traffic"
	"cloudburst/internal/txn"
	"cloudburst/internal/workload"
)

// ChaosConfig parameterizes the chaos matrix: every workload × every
// consistency mode × a randomized-but-reproducible fault plan. The
// matrix is the scenario-diversity smoke behind the chaos plane: each
// cell asserts liveness (post-heal probes succeed), no lost requests
// (every chaos-phase request reaches a terminal outcome within bounded
// client retries), and clean audit detectors over the traced execution.
type ChaosConfig struct {
	Workloads []string         // subset of "retwis", "predserve", "gossip"
	Modes     []cb.Consistency // consistency levels to sweep
	Clients   int              // concurrent clients per cell
	Requests  int              // chaos-phase logical requests per client
	Window    time.Duration    // chaos window the fault plan fills
	Faults    int              // fault/heal pairs per randomized plan
	Seed      int64
	// Lifecycle appends three deterministic scenario cells to the
	// randomized matrix: a rolling upgrade (drain → warm replace → rejoin,
	// one VM at a time), a correlated rack failure with warm recovery, and
	// an open-loop traffic cell — the internal/traffic pool firing at a
	// sharded scheduler group while a split-brain blinds the monitor from
	// a VM the schedulers keep using.
	Lifecycle bool
	// Txn appends the three transactional cells: the bank workload in
	// Transactional mode with a CrashAt armed on each 2PC point-cut —
	// coordinator death between prepare and commit, participant death
	// after its prepare ack, and coordinator death after logging but
	// before any decision is sent (the dropped-commit shape). Each cell
	// asserts the balance-sum invariant and zero in-doubt leftovers
	// after heal.
	Txn bool
}

// AllModes is the §6.2 sweep.
var AllModes = []cb.Consistency{cb.LWW, cb.RepeatableRead, cb.SingleKeyCausal, cb.MultiKeyCausal, cb.Causal}

// ChaosQuick returns the CI cell sizing: 15 cells, seconds each.
func ChaosQuick() ChaosConfig {
	return ChaosConfig{
		Workloads: []string{"retwis", "predserve", "gossip"},
		Modes:     AllModes,
		Clients:   3, Requests: 5, Window: 20 * time.Second,
		Faults: 3, Seed: 97, Lifecycle: true, Txn: true,
	}
}

// ChaosFull returns a heavier sweep for cb-bench -full.
func ChaosFull() ChaosConfig {
	c := ChaosQuick()
	c.Clients, c.Requests, c.Faults = 6, 25, 6
	c.Window = 60 * time.Second
	return c
}

// ChaosCell is one matrix cell's outcome.
type ChaosCell struct {
	Workload string
	Mode     string

	Issued int // logical requests in the chaos phase
	OK     int // terminal success
	Failed int // terminal failure reported by the system
	Lost   int // no terminal outcome within bounded retries — must be 0

	ProbesOK   bool // every post-heal liveness probe succeeded
	Reexecs    int64
	FaultCount int
	Faults     []string // injector timeline
	GhostKeys  int      // dead-generation entries left in Anna registries — must be 0

	Reads, Writes int // audit-trace sizes (detector sanity)
	Anomalies     audit.Report

	// Transactional cells (scenario txn-*) only.
	BankSum    int   // balance sum after heal — must equal BankWant
	BankWant   int   // the invariant (accounts × initial); 0 for non-bank cells
	InDoubt    int   // prepared-but-unresolved txns left on Anna — must be 0
	TxnCommits int   // requests that committed through 2PC
	ledger     error // bankLedger.check after heal — must be nil
}

// ChaosResult is the full matrix.
type ChaosResult struct {
	Cells []ChaosCell
}

// Print renders the matrix.
func (r ChaosResult) Print() string {
	rows := make([][]string, len(r.Cells))
	for i, c := range r.Cells {
		live := "ok"
		if !c.ProbesOK {
			live = "FAIL"
		}
		rows[i] = []string{
			c.Workload, c.Mode,
			fmt.Sprintf("%d", c.Issued), fmt.Sprintf("%d", c.OK),
			fmt.Sprintf("%d", c.Failed), fmt.Sprintf("%d", c.Lost),
			live, fmt.Sprintf("%d", c.Reexecs), fmt.Sprintf("%d", c.FaultCount),
		}
	}
	out := Table("Chaos matrix: workloads × modes × randomized fault plans",
		[]string{"workload", "mode", "issued", "ok", "failed", "lost", "liveness", "reexecs", "faults"}, rows)
	for _, c := range r.Cells {
		for _, f := range c.Faults {
			out += fmt.Sprintf("  [%s/%s] %s\n", c.Workload, c.Mode, f)
		}
		if c.BankWant > 0 {
			out += fmt.Sprintf("  [%s/%s] bank sum %d/%d, in-doubt %d, 2pc commits %d\n",
				c.Workload, c.Mode, c.BankSum, c.BankWant, c.InDoubt, c.TxnCommits)
		}
	}
	return out
}

// RunChaosMatrix sweeps every cell. Each cell boots its own traced
// cluster, draws a plan from its own seeded rng (equal seeds give
// identical matrices), runs closed-loop load through the chaos window,
// waits for every fault to heal and every replacement VM to join, then
// probes liveness.
func RunChaosMatrix(cfg ChaosConfig) ChaosResult {
	type cellSpec struct {
		wl       string
		mode     cb.Consistency
		seed     int64
		scenario string
	}
	var cells []cellSpec
	for _, wl := range cfg.Workloads {
		for mi, mode := range cfg.Modes {
			cellSeed := cfg.Seed + int64(mi) + 100*int64(len(wl)) + int64(wl[0])
			cells = append(cells, cellSpec{wl, mode, cellSeed, ""})
		}
	}
	if cfg.Lifecycle {
		cells = append(cells,
			cellSpec{"predserve", cb.LWW, cfg.Seed + 7001, "rolling"},
			cellSpec{"retwis", cb.LWW, cfg.Seed + 7002, "rack"},
			cellSpec{"openloop", cb.LWW, cfg.Seed + 7003, "traffic"})
	}
	if cfg.Txn {
		cells = append(cells,
			cellSpec{"bank", cb.Transactional, cfg.Seed + 7004, "txn-coord"},
			cellSpec{"bank", cb.Transactional, cfg.Seed + 7005, "txn-part"},
			cellSpec{"bank", cb.Transactional, cfg.Seed + 7006, "txn-commit"})
	}
	// Every cell boots its own traced cluster from a precomputed seed, so
	// the whole matrix fans out on the parallel runner; cell order in the
	// table is the spec order, independent of completion order.
	return ChaosResult{Cells: parallel.Map(cells, func(_ int, s cellSpec) ChaosCell {
		return runChaosCell(cfg, s.wl, s.mode, s.seed, s.scenario)
	})}
}

// chaosDriver issues one logical workload request; err semantics follow
// the client API (ErrTimedOut means no terminal outcome yet).
type chaosDriver func(cl *cb.Client, rng *rand.Rand) error

// runChaosCell runs one cell. scenario "" draws a randomized plan;
// "rolling" and "rack" run the deterministic lifecycle composites.
func runChaosCell(cfg ChaosConfig, wl string, mode cb.Consistency, seed int64, scenario string) ChaosCell {
	cell := ChaosCell{Workload: wl, Mode: mode.String()}
	if scenario != "" {
		cell.Workload = wl + "+" + scenario
	}
	rec := audit.NewRecorder()

	ccfg := crashCluster(seed, 3, 6*time.Second, 4*time.Second)
	ccfg.Mode = mode
	ccfg.ThreadsPerVM = 2
	ccfg.DAGTimeout = 4 * time.Second
	if scenario == "traffic" {
		// The open-loop cell runs a sharded scheduler group: 3 schedulers
		// (consistent-hash routed, retries walk the ranking), plus the
		// monitor on a fixed fleet (MaxVMs = VMs, everything pinned) so
		// the split-brain has a real monitor to blind.
		ccfg.Schedulers = 3
		fixedFleet(&ccfg)
	}
	ccfg.Tracer = rec
	c := cb.NewCluster(ccfg)
	defer c.Close()
	in := c.Internal()

	driver, bank := registerChaosWorkload(c, wl, seed)
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second) })

	// Draw the cell's randomized plan and start it.
	vms := make([]string, 0, 3)
	for _, h := range in.VMs() {
		vms = append(vms, h.Name)
	}
	var scheds []simnet.NodeID
	for _, s := range in.Schedulers() {
		scheds = append(scheds, s.ID())
	}
	var plan *fault.Plan
	switch scenario {
	case "rolling":
		plan = fault.NewPlan("rolling").At(2*time.Second,
			fault.RollingRestart{VMs: vms[:2], Drain: 5 * time.Second, Settle: 2 * time.Second})
	case "rack":
		plan = fault.NewPlan("rack").At(2*time.Second,
			fault.RackFailure{})
	case "txn-coord":
		// Coordinator VM dies between collecting prepare acks and writing
		// the commit log: presumed abort must release every lock. Armed
		// immediately — the trap must be set before the first transfer
		// reaches its 2PC point-cut, or it would only spring during the
		// post-heal probes.
		plan = fault.NewPlan("txn-coord").At(time.Millisecond,
			fault.CrashAt{Hook: txn.HookPostPrepare, HealAfter: 8 * time.Second, Warm: true})
	case "txn-part":
		// A participant storage node goes dark right after acking its
		// prepare; it must resolve the in-doubt entry from the coordinator
		// log when it comes back.
		plan = fault.NewPlan("txn-part").At(time.Millisecond,
			fault.CrashAt{Hook: txn.HookPostPrepareAck, HealAfter: 8 * time.Second})
	case "txn-commit":
		// Coordinator dies after logging the commit but before any
		// decision message leaves: the dropped-commit shape, recovered by
		// the participants' sweep finding the log.
		plan = fault.NewPlan("txn-commit").At(time.Millisecond,
			fault.CrashAt{Hook: txn.HookPreCommitSend, HealAfter: 8 * time.Second, Warm: true})
	case "traffic":
		planRng := rand.New(rand.NewSource(seed * 31))
		plan = fault.RandomPlan(planRng, fault.RandomOpts{
			Start: 0, Window: cfg.Window, Faults: cfg.Faults,
			VMs: vms, Nodes: scheds, AnnaNodes: 3,
			AllowWarmRestart: true, AllowSplitBrain: true,
		})
		// A deterministic split-brain bracket on the first VM guarantees
		// the divergent-view path fires every run, whatever the random
		// draw adds on top.
		plan.During(2*time.Second, 8*time.Second, fault.SplitBrain{VM: vms[0]})
	default:
		planRng := rand.New(rand.NewSource(seed * 31))
		plan = fault.RandomPlan(planRng, fault.RandomOpts{
			Start: 0, Window: cfg.Window, Faults: cfg.Faults,
			VMs: vms, Nodes: scheds, AnnaNodes: 3,
			AllowWarmRestart: true,
		})
	}
	inj := fault.NewInjector(in)
	c.Run(func(cl *cb.Client) { inj.Start(plan) })
	if bank != nil {
		// Let the CrashAt arm land before the load phase: the bank cells'
		// whole point is a crash inside a loaded 2PC window.
		c.Run(func(cl *cb.Client) { cl.Sleep(500 * time.Millisecond) })
	}

	// Chaos phase. The traffic scenario swaps the closed-loop drivers for
	// the open-loop pool: Poisson arrivals fire at the scheduler group
	// regardless of completions, and the pool's own bounded reaper
	// (re-routing each retry to the next shard in the ranking) stands in
	// for the client-side re-issue loop — Lost keeps the same meaning, a
	// request with no terminal outcome across all attempts.
	if scenario == "traffic" {
		zip := traffic.NewZipfKeys(seed+11, 1.2, chaosTrafficKeys, "ck")
		mix := traffic.NewMix(seed+13, 80, 20)
		spec := traffic.Spec{
			Name:     "chaos-traffic",
			Arrivals: traffic.NewPoisson(seed+17, 25),
			Window:   cfg.Window,
			Next: func(n int64) traffic.Invocation {
				key, _ := codec.Encode(zip.Next())
				if mix.Next() == 1 {
					return traffic.Invocation{DAG: "tchain",
						DAGArgs: []core.FnArgs{{Fn: "tfn", Args: []core.Arg{{Val: key}}}}}
				}
				return traffic.Invocation{Function: "tfn", Args: []core.Arg{{Val: key}}}
			},
			RetryAfter:  3 * time.Second,
			MaxAttempts: 6,
			Drain:       30 * time.Second,
		}
		eps := []*simnet.Endpoint{in.NewClientEndpoint(), in.NewClientEndpoint()}
		c.Run(func(cl *cb.Client) {
			prec := traffic.NewPool(in.K, in, eps, spec).Run()
			cell.Issued = int(prec.Issued)
			cell.OK = int(prec.Done)
			cell.Failed = int(prec.Failed)
			cell.Lost = int(prec.Lost)
		})
		return settleChaosCell(cfg, c, in, inj, rec, driver, seed, cell)
	}

	// Closed-loop logical requests with bounded client-side re-issue. A
	// timeout is not terminal: the scheduler re-executes a tracked
	// request, a single function (Retwis, gossip) as well as a DAG
	// (§4.5), but a request to a degraded scheduler can vanish before
	// being tracked, and a re-execution can outlast the client's wait, so
	// the client re-issues, as a real application would. Only a request
	// with no terminal outcome across all attempts counts as lost.
	const maxAttempts = 5
	windowEnd := c.Now() + cfg.Window
	c.RunN(cfg.Clients, func(i int, cl *cb.Client) {
		cl.Timeout = 15 * time.Second
		rng := rand.New(rand.NewSource(seed + 500 + int64(i)))
		for r := 0; r < cfg.Requests; r++ {
			cell.Issued++
			var err error
			settled := false
			for attempt := 0; attempt < maxAttempts; attempt++ {
				err = driver(cl, rng)
				if err == nil {
					cell.OK++
					settled = true
					break
				}
				if !errors.Is(err, cb.ErrTimedOut) {
					cell.Failed++ // terminal failure delivered by the system
					settled = true
					break
				}
			}
			if !settled {
				cell.Lost++
			}
			if time.Duration(cl.Now()) > windowEnd {
				break // keep cells bounded; Issued tracks the actual count
			}
		}
	})
	cell = settleChaosCell(cfg, c, in, inj, rec, driver, seed, cell)
	if bank != nil {
		// The transactional invariants: the money is all there, nothing is
		// stuck in doubt, and at least one transfer actually committed
		// through 2PC (otherwise the cell proved nothing).
		cell.BankWant = bank.Total()
		cell.BankSum = bankSum(c, bank.Bank)
		cell.InDoubt = in.KV.PreparedTxns()
		cell.TxnCommits = rec.TxnCommits()
		cell.ledger = bank.check(c)
	}
	return cell
}

// settleChaosCell finishes a cell after its chaos phase: waits out the
// plan and any replacement boots, probes liveness on the healed
// cluster, and collects the re-execution, registry, and audit digests.
func settleChaosCell(cfg ChaosConfig, c *cb.Cluster, in *cluster.Cluster, inj *fault.Injector,
	rec *audit.Recorder, driver chaosDriver, seed int64, cell ChaosCell) ChaosCell {
	// Settle: wait for the plan to finish, replacements to boot, and the
	// control plane to re-learn the fleet.
	waitHealed(c, inj)

	// Liveness probes: the healed cluster must serve every probe.
	probesOK := true
	c.RunN(cfg.Clients, func(i int, cl *cb.Client) {
		cl.Timeout = 30 * time.Second
		rng := rand.New(rand.NewSource(seed + 900 + int64(i)))
		for r := 0; r < chaosProbes; r++ {
			var err error
			for attempt := 0; attempt < 3; attempt++ {
				if err = driver(cl, rng); err == nil {
					break
				}
			}
			if err != nil {
				probesOK = false
			}
		}
	})
	cell.ProbesOK = probesOK
	cell.Reexecs = reexecutions(in)
	// Every crashed generation was replaced by now, so its reaper ran:
	// the discovery registries must describe exactly the live fleet.
	c.Run(func(cl *cb.Client) { cell.GhostKeys = countGhostKeys(in) })
	cell.Faults = inj.TimelineStrings()
	cell.FaultCount = len(cell.Faults)
	cell.Reads, cell.Writes = rec.Counts()
	cell.Anomalies = rec.Analyze() // detectors must run cleanly on chaos traces
	return cell
}

// countGhostKeys returns how many entries in the Anna discovery
// registries name a thread or cache that no live VM owns — tombstones
// the generation reaper failed to scrub. Must be called from inside the
// kernel (it issues Anna RPCs).
func countGhostKeys(in *cluster.Cluster) int {
	live := map[string]bool{}
	for _, h := range in.VMs() {
		for _, t := range h.Threads {
			live[core.ExecMetricsKey(string(t.ID()))] = true
		}
		live[core.CacheKeysKey(h.Name)] = true
	}
	kv := in.AnnaClientFor(in.NewClientEndpoint())
	ghosts := 0
	for _, reg := range []string{executor.MetricListKey, executor.CacheListKey} {
		r := core.Registry{ListKey: reg}
		for _, e := range r.Keys(kv, nil) {
			if !live[e] {
				ghosts++
			}
		}
	}
	return ghosts
}

// bankLedger is a bank and what its client saw: each account's balance
// as the transfers that succeeded leave it, and how many timed out.
type bankLedger struct {
	*workload.Bank
	want   []int
	unseen int
}

// check reads every balance from the KVS and holds it to the ledger.
func (l *bankLedger) check(c *cb.Cluster) (err error) {
	if l.unseen > 0 {
		return fmt.Errorf("%d transfers timed out, their outcome unseen", l.unseen)
	}
	c.Run(func(cl *cb.Client) {
		for i, want := range l.want {
			if v, _, gerr := cl.Get(l.Key(i)); gerr != nil || v != want {
				err = fmt.Errorf("account %d: balance %v (%v), want %d from the transfers seen", i, v, gerr, want)
				return
			}
		}
	})
	return err
}

// registerChaosWorkload installs one workload and returns its request
// driver, plus the bank and its ledger when the workload is the
// transactional bank (nil otherwise).
func registerChaosWorkload(c *cb.Cluster, wl string, seed int64) (chaosDriver, *bankLedger) {
	switch wl {
	case "bank":
		b, err := workload.RegisterBank(c, 8)
		if err != nil {
			panic(err)
		}
		b.Preload(c)
		l := &bankLedger{Bank: b, want: slices.Repeat([]int{b.Total() / b.Accounts}, b.Accounts)}
		useTxn := c.Internal().Mode() == core.TXN
		return func(cl *cb.Client, rng *rand.Rand) error {
			i, j := accountPair(rng, b.Accounts)
			amount := 1 + rng.Intn(5)
			err := b.Transfer(cl, i, j, amount, useTxn)
			if err == nil {
				l.want[i], l.want[j] = l.want[i]-amount, l.want[j]+amount
			} else if errors.Is(err, cb.ErrTimedOut) {
				l.unseen++
			}
			return err
		}, l
	case "retwis":
		r := workload.DefaultRetwis()
		r.Users = 60
		r.Tweets = 240
		if err := r.Register(c); err != nil {
			panic(err)
		}
		g := r.Generate(rand.New(rand.NewSource(seed)))
		r.Preload(c, g)
		return func(cl *cb.Client, rng *rand.Rand) error {
			_, err := r.Request(cl, rng, g)
			return err
		}, nil
	case "predserve":
		p := workload.DefaultPredServe()
		p.ModelBytes = 1 << 20 // keep cell transfer cost CI-sized
		p.ModelTime = 40 * time.Millisecond
		p.Preload(c)
		if err := p.Register(c, 6); err != nil {
			panic(err)
		}
		return func(cl *cb.Client, rng *rand.Rand) error {
			_, err := p.Predict(cl)
			return err
		}, nil
	case "gossip":
		g := workload.DefaultGossip()
		g.Actors = 4
		g.MaxSteps = 150
		if err := g.Register(c); err != nil {
			panic(err)
		}
		round := 0
		return func(cl *cb.Client, rng *rand.Rand) error {
			round++ // kernel-serialized: unique id per round, retries included
			values := make([]float64, g.Actors)
			for i := range values {
				values[i] = 10 + 5*rng.Float64()
			}
			_, err := g.RunRound(cl, round, values)
			return err
		}, nil
	case "openloop":
		fn := func(ctx *cb.Ctx, args []any) (any, error) {
			key, _ := args[0].(string)
			if _, _, err := ctx.Get(key); err != nil {
				return nil, err
			}
			ctx.Compute(2 * time.Millisecond)
			return 1, nil
		}
		tail := func(ctx *cb.Ctx, args []any) (any, error) {
			ctx.Compute(time.Millisecond)
			return 1, nil
		}
		if err := c.RegisterFunction("tfn", fn); err != nil {
			panic(err)
		}
		if err := c.RegisterFunction("ttail", tail); err != nil {
			panic(err)
		}
		if err := c.RegisterDAG(cb.LinearDAG("tchain", "tfn", "ttail"), 6); err != nil {
			panic(err)
		}
		c.Run(func(cl *cb.Client) {
			for i := 0; i < chaosTrafficKeys; i++ {
				if err := cl.Put("ck"+strconv.Itoa(i), "v"); err != nil {
					panic(err)
				}
			}
		})
		return func(cl *cb.Client, rng *rand.Rand) error {
			_, err := cl.Invoke("tfn", []any{"ck" + strconv.Itoa(rng.Intn(chaosTrafficKeys))}).Wait()
			return err
		}, nil
	default:
		panic("bench: unknown chaos workload " + wl)
	}
}

const (
	chaosTrafficKeys = 80 // the open-loop cell's Zipf keyspace
	chaosProbes      = 2  // post-heal liveness probes per client
)
