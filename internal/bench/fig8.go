package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	cb "cloudburst"
	"cloudburst/internal/audit"
	"cloudburst/internal/parallel"
	"cloudburst/internal/workload"
)

// Fig8Config parameterizes the §6.2 consistency-overhead experiments
// (Figure 8 and, with the audit recorder, Table 2).
type Fig8Config struct {
	Keys     int // Zipf(1.0) keyspace (1M in the paper)
	DAGs     int // random linear DAGs (250 in the paper)
	Clients  int // 8 in the paper
	Requests int // per client (500 in the paper)
	Seed     int64
}

// fig8VMs is the paper's 5 execution nodes (15 threads).
const fig8VMs = 5

// Fig8Quick returns CI-friendly parameters.
func Fig8Quick() Fig8Config {
	return Fig8Config{Keys: 10_000, DAGs: 40, Clients: 4, Requests: 40, Seed: 23}
}

// Fig8Paper returns the paper's parameters.
func Fig8Paper() Fig8Config {
	return Fig8Config{Keys: 1_000_000, DAGs: 250, Clients: 8, Requests: 500, Seed: 23}
}

// Fig8Row is one consistency level's digest.
type Fig8Row struct {
	Summary Summary // latency normalized per DAG depth
	// MetaMedianB / MetaP99B are the per-key causal metadata sizes
	// (vector clocks plus dependency sets) observed in storage.
	MetaMedianB int
	MetaP99B    int
}

// Fig8Result holds one row per mode.
type Fig8Result struct {
	Rows []Fig8Row
}

// Print renders the figure.
func (r Fig8Result) Print() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Summary.Name,
			fmt.Sprintf("%d", row.Summary.N),
			fmt.Sprintf("%.2f", row.Summary.Median),
			fmt.Sprintf("%.2f", row.Summary.P99),
			fmt.Sprintf("%d", row.MetaMedianB),
			fmt.Sprintf("%d", row.MetaP99B),
		}
	}
	return Table("Figure 8: consistency-model latency (normalized per DAG depth)",
		[]string{"mode", "n", "median(ms)", "p99(ms)", "meta-med(B)", "meta-p99(B)"}, rows)
}

// modeLabel is a mode's row label: its name in capitals (§6.2's DSRR,
// SK, MK, DSC), and Txn for the transactional mode.
func modeLabel(m cb.Consistency) string {
	if m == cb.Transactional {
		return "Txn"
	}
	return strings.ToUpper(m.String())
}

// RunFig8 measures per-depth-normalized DAG latency under all five
// consistency levels. Each mode boots an independent cluster, so the
// five run as parallel tasks; rows land by mode index, identical to a
// serial sweep.
func RunFig8(cfg Fig8Config) Fig8Result {
	rows := parallel.Map(AllModes, func(i int, mode cb.Consistency) Fig8Row {
		sum, meta := fig8Mode(cfg, mode, nil)
		return Fig8Row{
			Summary:     sum,
			MetaMedianB: PercentileInts(meta, 0.50),
			MetaP99B:    PercentileInts(meta, 0.99),
		}
	})
	return Fig8Result{Rows: rows}
}

// fig8Mode runs the random-DAG workload under one mode; the optional
// tracer feeds the Table 2 audit.
func fig8Mode(cfg Fig8Config, mode cb.Consistency, tracer *audit.Recorder) (Summary, []int) {
	ccfg := cb.DefaultConfig()
	ccfg.Seed = cfg.Seed
	ccfg.Mode = mode
	ccfg.VMs = fig8VMs
	ccfg.AnnaNodes = 3
	if tracer != nil { // a nil *Recorder in the interface would not read as nil
		ccfg.Tracer = tracer
	}
	c := cb.NewCluster(ccfg)
	defer c.Close()

	rng := rand.New(rand.NewSource(cfg.Seed))
	w, err := workload.SetupConsistency(c, rng, cfg.Keys, cfg.DAGs, 2)
	if err != nil {
		panic(err)
	}
	var durs []time.Duration
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second) })
	c.RunN(cfg.Clients, func(i int, cl *cb.Client) {
		cl.Timeout = time.Minute
		for t := 0; t < cfg.Requests; t++ {
			start := cl.Now()
			depth, _, err := w.Request(cl)
			if err != nil {
				// fig8 injects no faults, so a failed request is a
				// defect: it leaves a sample out of n, and
				// TestFig8CompletesEverySample fails on it.
				continue
			}
			durs = append(durs, (cl.Now()-start)/time.Duration(depth))
		}
	})

	// Sample causal metadata sizes from storage.
	var meta []int
	if mode == cb.SingleKeyCausal || mode == cb.MultiKeyCausal || mode == cb.Causal {
		for _, n := range c.Internal().KV.Nodes() {
			for _, m := range n.CausalMetadataSizes() {
				meta = append(meta, m)
			}
		}
	} else {
		meta = []int{8} // the LWW timestamp
	}
	return Summarize(modeLabel(mode), durs), meta
}

// Table2Config parameterizes the §6.2.2 anomaly count.
type Table2Config struct {
	Fig8       Fig8Config // its Requests is set from Executions
	Executions int        // total DAG executions (4000 in the paper)
}

// Table2Quick returns CI-friendly parameters.
func Table2Quick() Table2Config {
	return Table2Config{Fig8: Fig8Quick(), Executions: 600}
}

// Table2Paper returns the paper's parameters.
func Table2Paper() Table2Config {
	return Table2Config{Fig8: Fig8Paper(), Executions: 4000}
}

// Table2Result is the audit report.
type Table2Result struct {
	Report audit.Report
}

// Print renders Table 2.
func (r Table2Result) Print() string {
	rep := r.Report
	rows := [][]string{{
		"0",
		fmt.Sprintf("%d", rep.SK),
		fmt.Sprintf("%d", rep.MK),
		fmt.Sprintf("%d", rep.DSC),
		fmt.Sprintf("%d", rep.DSRR),
	}}
	out := Table("Table 2: inconsistencies observed under LWW execution",
		[]string{"LWW", "SK", "MK", "DSC", "DSRR"}, rows)
	out += fmt.Sprintf("(over %d DAG executions, %d reads, %d writes; MK adds %d to SK, DSC adds %d to MK)\n",
		rep.Executions, rep.Reads, rep.Writes, rep.MKExtra, rep.DSCExtra)
	return out
}

// RunTable2 executes the Fig 8 workload in LWW mode with the audit
// recorder attached and replays the trace through the per-level anomaly
// detectors.
func RunTable2(cfg Table2Config) Table2Result {
	f := cfg.Fig8
	perClient := cfg.Executions / f.Clients
	if perClient < 1 {
		perClient = 1
	}
	f.Requests = perClient
	rec := audit.NewRecorder()
	fig8Mode(f, cb.LWW, rec)
	return Table2Result{Report: rec.Analyze()}
}
