package bench

// Figure 14 (this reproduction's observability figure): critical-path
// latency breakdown from the virtual-time tracing plane. Four
// scenarios reuse earlier figures' rigs, traced end to end, and the
// table shows where the p50 and p99 requests' wall time actually went:
//
//   hot-read    fig5's 10-array sum with warm caches — compute-bound
//   cold-read   the same with caches evicted — KVS/cache-bound
//   spike       fig10's performance-under-failure run — the tail is
//               queue pile-up on the surviving threads plus §4.5
//               retry time for the requests the dead VM held
//   knee        a fig13 cell past the saturation knee — the p99 is
//               dominated by scheduler inbox queueing
//
// The spike and knee rows are the figure's acceptance gate: the
// analyzer must attribute ≥95% of the p99 request's wall clock to
// named categories (queue, dispatch, kvs, cache, compute, retry,
// network) — a diverging tail you can't explain is not an explained
// figure. Tracing is CPU-side only, so every scenario's latencies are
// identical to the untraced originals.

import (
	"fmt"
	"os"
	"sort"
	"time"

	cb "cloudburst"
	"cloudburst/internal/parallel"
	"cloudburst/internal/trace"
	"cloudburst/internal/workload"
)

// Fig14Config parameterizes the breakdown figure.
type Fig14Config struct {
	// ReadTrials is the measured invocation count per read row.
	ReadTrials int
	// Spike is the fig10 failure rig run traced for the spike row.
	Spike Fig10FailureConfig
	// Knee is the fig13 cell rig for the knee row, run single-scheduler
	// at KneeLoad — pick a load past the knee so the inbox queue grows.
	Knee     Fig13Config
	KneeLoad float64
	// ChromeOut, when non-empty, receives the knee scenario's retained
	// traces as Chrome trace-event JSON (the CI artifact).
	ChromeOut string
	Seed      int64
}

// fig14ReadElems is the fig5-style per-array element count of the read
// rows (×10 arrays ×8B).
const fig14ReadElems = 100000

// Fig14Quick returns CI-friendly parameters: the fig10 rig trimmed to
// ~40 virtual seconds and a 3-second open-loop window at roughly twice
// the single-scheduler knee.
func Fig14Quick() Fig14Config {
	spike := Fig10FailureQuick()
	spike.VMs, spike.Clients = 3, 8
	spike.Compute = 25 * time.Millisecond
	spike.Deadline = 2 * time.Second
	spike.KillAt, spike.RestFor = 12*time.Second, 10*time.Second
	spike.VMSpinUp, spike.RunFor = 6*time.Second, 40*time.Second
	knee := Fig13Quick()
	knee.Window, knee.Drain = 3*time.Second, 2*time.Second
	return Fig14Config{
		ReadTrials: 16,
		Spike:      spike,
		Knee:       knee,
		KneeLoad:   600, // DispatchCost 3ms caps one scheduler at ~333 req/s
		Seed:       29,
	}
}

// Fig14Paper returns a heavier configuration for -full runs.
func Fig14Paper() Fig14Config {
	cfg := Fig14Quick()
	cfg.ReadTrials = 48
	cfg.Spike = Fig10FailureQuick()
	cfg.Knee = Fig13Quick()
	cfg.Knee.Window, cfg.Knee.Drain = 6*time.Second, 3*time.Second
	cfg.KneeLoad = 900
	return cfg
}

// Fig14Row is one scenario's breakdown: the p50 and p99 requests by
// wall time, with the analyzer's category fold for each.
type Fig14Row struct {
	Scenario string
	Traces   int
	P50      trace.Summary
	P99      trace.Summary
}

// Fig14Result is the figure plus the knee scenario's Chrome export.
type Fig14Result struct {
	Rows []Fig14Row
	// Chrome is the knee scenario's retained span trees as Chrome
	// trace-event JSON (chrome://tracing / Perfetto).
	Chrome []byte
}

// Print renders the breakdown table and the attribution line for the
// two gated rows.
func (r Fig14Result) Print() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Scenario,
			fmt.Sprintf("%d", row.Traces),
			fmt.Sprintf("%.1f", ms(row.P50.Wall)),
			trace.BreakdownRow(row.P50),
			fmt.Sprintf("%.1f", ms(row.P99.Wall)),
			trace.BreakdownRow(row.P99),
			fmt.Sprintf("%.0f%%", 100*row.P99.Attributed()),
		}
	}
	out := Table("Figure 14: critical-path latency breakdown (tracing plane)",
		[]string{"scenario", "traces", "p50(ms)", "p50 critical path", "p99(ms)", "p99 critical path", "p99 attributed"}, rows)
	for _, row := range r.Rows {
		if row.Scenario != "spike" && row.Scenario != "knee" {
			continue
		}
		cat, share := row.P99.Dominant()
		out += fmt.Sprintf("%s p99: %.0f%% attributed, dominated by %s (%.0f%%)\n",
			row.Scenario, 100*row.P99.Attributed(), cat, 100*share)
	}
	return out
}

// RunFig14 runs the four scenarios (independent rigs, so they fan out
// on the parallel runner) and assembles the figure.
func RunFig14(cfg Fig14Config) Fig14Result {
	var chrome []byte
	rows := parallel.Map([]int{0, 1, 2, 3}, func(_ int, scenario int) Fig14Row {
		switch scenario {
		case 0:
			return fig14Read(cfg, false)
		case 1:
			return fig14Read(cfg, true)
		case 2:
			return fig14Spike(cfg)
		default:
			row, export := fig14Knee(cfg)
			chrome = export
			return row
		}
	})
	res := Fig14Result{Rows: rows, Chrome: chrome}
	if cfg.ChromeOut != "" {
		if err := os.WriteFile(cfg.ChromeOut, res.Chrome, 0o644); err != nil {
			panic(fmt.Sprintf("fig14: write %s: %v", cfg.ChromeOut, err))
		}
	}
	return res
}

// fig14Read runs the fig5 10-array sum traced, warm or cold.
func fig14Read(cfg Fig14Config, cold bool) Fig14Row {
	col := trace.New()
	ccfg := cb.DefaultConfig()
	ccfg.Seed = cfg.Seed
	ccfg.VMs = 7
	ccfg.AnnaNodes = 4
	ccfg.Trace = col
	c := cb.NewCluster(ccfg)
	defer c.Close()

	a := workload.ArraySum{NumArrays: 10, Elems: fig14ReadElems}
	if err := a.Register(c); err != nil {
		panic(err)
	}
	a.Preload(c, 0)
	args := a.RefArgs(0)
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second) })
	if !cold {
		warmSum(c, args, 5*time.Minute, "fig14")
	}

	// Warmup invocations above were traced too; measure from here.
	n0 := len(col.Summaries())
	c.Run(func(cl *cb.Client) {
		cl.Timeout = 5 * time.Minute
		for t := 0; t < cfg.ReadTrials; t++ {
			if cold {
				a.EvictEverywhere(c, 0)
			}
			if _, err := cl.Invoke("sum10", args).Wait(); err != nil {
				panic(fmt.Sprintf("fig14 read: %v", err))
			}
		}
	})

	name := "hot-read"
	if cold {
		name = "cold-read"
	}
	return fig14RowFrom(name, col.Summaries()[n0:])
}

// fig14Spike runs the fig10 failure experiment traced; the collector
// sees every load request, and the p99-by-wall request is one riding
// the §4.5 re-execution path through the outage.
func fig14Spike(cfg Fig14Config) Fig14Row {
	col := trace.New()
	scfg := cfg.Spike
	scfg.Trace = col
	RunFig10Failure(scfg)
	return fig14RowFrom("spike", col.Summaries())
}

// fig14Knee runs one fig13 cell single-scheduler past the knee and
// also exports the retained traces as Chrome JSON.
func fig14Knee(cfg Fig14Config) (Fig14Row, []byte) {
	col := trace.New()
	k := cfg.Knee
	k.traceInto = col
	runFig13Point(k, 1, cfg.KneeLoad)
	return fig14RowFrom("knee", col.Summaries()), col.ChromeJSON()
}

// fig14RowFrom picks the p50 and p99 order statistics by wall time
// (ties broken by request ID, so the pick is deterministic).
func fig14RowFrom(name string, sums []trace.Summary) Fig14Row {
	row := Fig14Row{Scenario: name, Traces: len(sums)}
	if len(sums) == 0 {
		return row
	}
	s := append([]trace.Summary(nil), sums...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Wall != s[j].Wall {
			return s[i].Wall < s[j].Wall
		}
		return s[i].ReqID < s[j].ReqID
	})
	row.P50 = s[int(0.50*float64(len(s)-1))]
	row.P99 = s[int(0.99*float64(len(s)-1))]
	return row
}
