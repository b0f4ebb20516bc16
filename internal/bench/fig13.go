package bench

// Figure 13 (this reproduction's extension experiment): control-plane
// saturation under open-loop load. Every paper figure drives the
// system closed-loop — clients block on their own futures, so offered
// load collapses exactly when the system slows down and the
// single-scheduler bottleneck never shows. Here the traffic plane
// (internal/traffic) offers a fixed arrival rate regardless of
// completions, sweeping offered load × scheduler-group size on an
// otherwise identical cluster. Each scheduler pays a modeled
// per-request dispatch cost on a serial dispatcher, so one scheduler
// caps at ~1/DispatchCost req/s: past that, its inbox queue grows
// without bound and p99 diverges. The headline is the saturation knee
// — the highest offered load still served at p99 ≤ fig13KneeP99 with
// ≥ fig13KneeFrac of offered load sustained — for 1 vs N schedulers,
// which should scale ~linearly with the shard count (§3.2's "many
// schedulers behind a load balancer"). The sharded arm also runs the
// partitioned monitor, so the whole control plane is sharded, not
// just the schedulers.

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"time"

	cb "cloudburst"
	"cloudburst/internal/core"
	"cloudburst/internal/parallel"
	"cloudburst/internal/simnet"
	"cloudburst/internal/trace"
	"cloudburst/internal/traffic"
)

// The sweep's fixed parameters: every fig13 configuration, and fig14's
// knee cell, runs with these.
const (
	fig13ThreadsPerVM = 3
	fig13ZipfS        = 1.3                   // Zipf exponent of the hot-key draw
	fig13DAGPercent   = 30                    // % of requests invoking the 2-function DAG
	fig13KneeP99      = 30 * time.Millisecond // knee criterion: p99 at or under this
	fig13KneeFrac     = 0.90                  // ...and sustained ≥ frac × offered
	fig13Seed         = 23
)

// Fig13Config parameterizes the saturation sweep.
type Fig13Config struct {
	SchedulerCounts []int         // group sizes to sweep (first is the baseline)
	Loads           []float64     // offered req/s per point
	Window          time.Duration // open-loop generation window
	Drain           time.Duration // post-window grace before pending counts Lost
	VMs             int           // fixed fleet (MinVMs = MaxVMs = VMs)
	MonitorShards   int           // partitioned monitor in the sharded arms
	DispatchCost    time.Duration // per-request scheduler CPU cost
	Compute         time.Duration // per-function modeled work
	Keys            int           // Zipf hot-key space
	Workers         int           // traffic-pool client endpoints
	// traceInto, when non-nil, traces the cell's cluster and pool into
	// this collector — fig14 reuses the cell runner and needs the
	// summaries afterwards.
	traceInto *trace.Collector
}

// Fig13Quick returns CI-scale parameters. DispatchCost 3ms caps one
// scheduler at ~333 req/s, so the single-scheduler knee lands at 150
// while 4 schedulers (each seeing ~1/4 of the hash-split arrivals)
// hold 600+ — the executor fleet (18 threads, ~2.3ms/function) stays
// under 25% busy at the top load, keeping the knee purely
// control-plane.
func Fig13Quick() Fig13Config {
	return Fig13Config{
		SchedulerCounts: []int{1, 4},
		Loads:           []float64{150, 300, 600, 1200},
		Window:          4 * time.Second,
		Drain:           2 * time.Second,
		VMs:             6,
		MonitorShards:   3,
		DispatchCost:    3 * time.Millisecond,
		Compute:         1500 * time.Microsecond,
		Keys:            400,
		Workers:         4,
	}
}

// Fig13Paper returns the full sweep: a wider load ladder against a
// bigger fixed fleet, with the paper's 1-vs-8 scheduler contrast.
func Fig13Paper() Fig13Config {
	return Fig13Config{
		SchedulerCounts: []int{1, 4, 8},
		Loads:           []float64{250, 500, 1000, 2000, 4000, 8000},
		Window:          10 * time.Second,
		Drain:           4 * time.Second,
		VMs:             24,
		MonitorShards:   4,
		DispatchCost:    2 * time.Millisecond,
		Compute:         2 * time.Millisecond,
		Keys:            10_000,
		Workers:         8,
	}
}

// Fig13Point is one cell of the sweep.
type Fig13Point struct {
	Schedulers int
	Offered    float64 // req/s the generator produced
	Sustained  float64 // successful completions/s inside the window
	P50        time.Duration
	P99        time.Duration
	Issued     int64
	Done       int64
	Failed     int64
	Lost       int64
}

// Fig13Result is the sweep plus the knee digest.
type Fig13Result struct {
	Points []Fig13Point
	// Knees maps scheduler count → highest offered load meeting the
	// knee criterion (0 when even the lowest load missed it).
	Knees     map[int]float64
	KneeRatio float64 // best sharded knee / single-scheduler knee
}

// Print renders the sweep table and the knee headline.
func (r Fig13Result) Print() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			strconv.Itoa(p.Schedulers),
			fmt.Sprintf("%.0f", p.Offered),
			fmt.Sprintf("%.0f", p.Sustained),
			fmt.Sprintf("%.1f", ms(p.P50)),
			fmt.Sprintf("%.1f", ms(p.P99)),
			fmt.Sprintf("%d/%d/%d", p.Done, p.Failed, p.Lost),
		})
	}
	out := Table("Figure 13: open-loop saturation, offered load × scheduler group",
		[]string{"scheds", "offered req/s", "sustained req/s", "p50(ms)", "p99(ms)", "done/failed/lost"}, rows)
	for _, n := range slices.Sorted(maps.Keys(r.Knees)) {
		out += fmt.Sprintf("knee (%d scheduler%s): %.0f req/s\n", n, plural(n), r.Knees[n])
	}
	out += fmt.Sprintf("saturation knee, sharded over single: %.1fx\n", r.KneeRatio)
	return out
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

// RunFig13 sweeps every (scheduler count, offered load) cell on a
// fresh, identically-seeded cluster and digests the knees. The grid is
// flattened into independent cells and run through the parallel
// runner; the knee fold stays serial over the index-ordered points, so
// the digest is identical to a nested serial sweep.
func RunFig13(cfg Fig13Config) Fig13Result {
	type cellSpec struct {
		scount int
		load   float64
	}
	grid := make([]cellSpec, 0, len(cfg.SchedulerCounts)*len(cfg.Loads))
	for _, scount := range cfg.SchedulerCounts {
		for _, load := range cfg.Loads {
			grid = append(grid, cellSpec{scount, load})
		}
	}
	res := Fig13Result{Knees: make(map[int]float64)}
	for _, scount := range cfg.SchedulerCounts {
		res.Knees[scount] = 0 // an arm that never meets the knee still prints its line
	}
	res.Points = parallel.Map(grid, func(_ int, cell cellSpec) Fig13Point {
		return runFig13Point(cfg, cell.scount, cell.load)
	})
	for i, p := range res.Points {
		load := grid[i].load
		if p.P99 <= fig13KneeP99 && p.Sustained >= fig13KneeFrac*load && load > res.Knees[p.Schedulers] {
			res.Knees[p.Schedulers] = load
		}
	}
	base := res.Knees[cfg.SchedulerCounts[0]]
	best := 0.0
	for _, scount := range cfg.SchedulerCounts[1:] {
		if k := res.Knees[scount]; k > best {
			best = k
		}
	}
	if base > 0 {
		res.KneeRatio = best / base
	}
	return res
}

// runFig13Point runs one open-loop window against a fresh cluster.
func runFig13Point(cfg Fig13Config, scount int, load float64) Fig13Point {
	threads := cfg.VMs * fig13ThreadsPerVM
	ccfg := cb.DefaultConfig()
	ccfg.Seed = fig13Seed
	ccfg.VMs = cfg.VMs
	ccfg.ThreadsPerVM = fig13ThreadsPerVM
	ccfg.Schedulers = scount
	ccfg.AnnaNodes = 4
	// The monitor runs as a pure observer: a fixed fleet
	// (MinVMs = MaxVMs) with every function pinned everywhere
	// (MinPinned = fleet), so its registry scans exercise the
	// partitioned aggregation without perturbing capacity between arms.
	ccfg.Autoscale = true
	ccfg.MaxVMs = cfg.VMs
	ccfg.MinPinned = threads
	ccfg.SchedulerDispatchCost = cfg.DispatchCost
	ccfg.Trace = cfg.traceInto
	if scount > 1 {
		ccfg.MonitorShards = cfg.MonitorShards
	}
	c := cb.NewCluster(ccfg)
	defer c.Close()
	in := c.Internal()

	fn := func(ctx *cb.Ctx, args []any) (any, error) {
		ctx.Compute(cfg.Compute)
		return 1, nil
	}
	if err := c.RegisterFunction("sat1", fn); err != nil {
		panic(err)
	}
	if err := c.RegisterFunction("sat2", fn); err != nil {
		panic(err)
	}
	if err := c.RegisterDAG(cb.LinearDAG("satchain", "sat1", "sat2"), threads); err != nil {
		panic(err)
	}

	// Preload the Zipf keyspace: every request carries one Ref arg.
	c.Run(func(cl *cb.Client) {
		for i := 0; i < cfg.Keys; i++ {
			if err := cl.Put("sk"+strconv.Itoa(i), "v"); err != nil {
				panic(err)
			}
		}
		cl.Sleep(3 * time.Second) // let metrics publish and views warm
	})

	zip := traffic.NewZipfKeys(fig13Seed+101, fig13ZipfS, cfg.Keys, "sk")
	mix := traffic.NewMix(fig13Seed+211, 100-fig13DAGPercent, fig13DAGPercent)
	name := fmt.Sprintf("fig13-s%d-l%d", scount, int(load))
	spec := traffic.Spec{
		Name:     name,
		Workers:  cfg.Workers,
		Arrivals: traffic.NewPoisson(fig13Seed*1000+int64(load), load),
		Window:   cfg.Window,
		Next: func(n int64) traffic.Invocation {
			key := zip.Next()
			if mix.Next() == 1 {
				return traffic.Invocation{
					DAG:     "satchain",
					DAGArgs: []core.FnArgs{{Fn: "sat1", Args: []core.Arg{{Ref: key}}}},
				}
			}
			return traffic.Invocation{Function: "sat1", Args: []core.Arg{{Ref: key}}}
		},
		// Pure open-loop measurement: no client-side re-issues; whatever
		// is still pending when the drain closes counts Lost.
		RetryAfter:  cfg.Window + cfg.Drain + time.Second,
		MaxAttempts: 1,
		Drain:       cfg.Drain,
		Trace:       c.Trace(), // nil unless fig14 traces the cell
	}
	eps := make([]*simnet.Endpoint, cfg.Workers)
	for i := range eps {
		eps[i] = in.NewClientEndpoint()
	}

	var capsule traffic.Capsule
	c.Run(func(cl *cb.Client) {
		pool := traffic.NewPool(in.K, in, eps, spec)
		rec := pool.Run()
		// Persist the window through the wire codec and read it back:
		// the capsule is the measurement of record, so every figure-13
		// number has crossed the wire codec.
		ac := in.AnnaClientFor(in.NewClientEndpoint())
		if err := traffic.PublishCapsule(in.K, ac, rec.Capsule(name)); err != nil {
			panic(err)
		}
		got, err := traffic.LoadCapsule(ac, name)
		if err != nil {
			panic(err)
		}
		capsule = got
	})

	return Fig13Point{
		Schedulers: scount,
		Offered:    load,
		Sustained:  capsule.Sustained(cfg.Window),
		P50:        capsule.Quantile(0.50),
		P99:        capsule.Quantile(0.99),
		Issued:     capsule.Issued,
		Done:       capsule.Done,
		Failed:     capsule.Failed,
		Lost:       capsule.Lost,
	}
}
