package bench

import (
	"fmt"
	"time"

	cb "cloudburst"
	"cloudburst/internal/baseline"
	"cloudburst/internal/parallel"
	"cloudburst/internal/vtime"
	"cloudburst/internal/workload"
)

// Fig5Config parameterizes the §6.1.2 data-locality experiment.
type Fig5Config struct {
	// Elems sweeps per-array element counts (×10 arrays ×8B = total
	// size); the paper uses 1k..1M (80KB..80MB total).
	Elems   []int
	Clients int
	Trials  int // per client per size
	Seed    int64
}

// Fig5Quick returns CI-friendly parameters (largest size trimmed).
func Fig5Quick() Fig5Config {
	return Fig5Config{Elems: []int{1000, 10000, 100000}, Clients: 4, Trials: 12, Seed: 11}
}

// Fig5Paper returns the paper's sweep.
func Fig5Paper() Fig5Config {
	return Fig5Config{Elems: []int{1000, 10000, 100000, 1000000}, Clients: 12, Trials: 250, Seed: 11}
}

// Fig5Row is one (size, system) cell.
type Fig5Row struct {
	TotalBytes int
	Summary    Summary
	// KVSReadRTT is the measured KVS read round trips per request
	// (Cloudburst rows only): single-key gets plus grouped multi-gets
	// issued by the VM caches, divided by request count. The cold rows
	// show the grouped multi-get collapsing the 10-reference fan-out to
	// one round trip per storage node.
	KVSReadRTT float64
}

// Fig5Result groups rows by system.
type Fig5Result struct {
	Rows []Fig5Row
}

// Print renders the figure.
func (r Fig5Result) Print() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rtt := "-"
		if row.KVSReadRTT > 0 {
			rtt = fmt.Sprintf("%.1f", row.KVSReadRTT)
		}
		rows[i] = []string{
			sizeLabel(row.TotalBytes),
			row.Summary.Name,
			fmt.Sprintf("%d", row.Summary.N),
			fmt.Sprintf("%.2f", row.Summary.Median),
			fmt.Sprintf("%.2f", row.Summary.P95),
			fmt.Sprintf("%.2f", row.Summary.P99),
			rtt,
		}
	}
	return Table("Figure 5: sum of 10 arrays (data locality)",
		[]string{"total", "system", "n", "median(ms)", "p95(ms)", "p99(ms)", "kvs-rt/req"}, rows)
}

func sizeLabel(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

// RunFig5 sweeps input sizes across Cloudburst (hot/cold caches) and
// Lambda over Redis and S3. Every (size, system) cell is an
// independent rig, so the sweep fans out on the parallel runner and
// rows land in cell order — the same row order as the serial loop.
func RunFig5(cfg Fig5Config) Fig5Result {
	type cellSpec struct {
		a      workload.ArraySum
		system int // 0 hot, 1 cold, 2 redis, 3 s3
	}
	grid := make([]cellSpec, 0, 4*len(cfg.Elems))
	for _, elems := range cfg.Elems {
		a := workload.ArraySum{NumArrays: 10, Elems: elems}
		for sys := 0; sys < 4; sys++ {
			grid = append(grid, cellSpec{a, sys})
		}
	}
	rows := parallel.Map(grid, func(_ int, cell cellSpec) Fig5Row {
		row := Fig5Row{TotalBytes: cell.a.TotalBytes()}
		switch cell.system {
		case 0:
			row.Summary, row.KVSReadRTT = fig5Cloudburst(cfg, cell.a, false)
		case 1:
			row.Summary, row.KVSReadRTT = fig5Cloudburst(cfg, cell.a, true)
		case 2:
			row.Summary = fig5Lambda(cfg, cell.a, "redis")
		default:
			row.Summary = fig5Lambda(cfg, cell.a, "s3")
		}
		return row
	})
	return Fig5Result{Rows: rows}
}

// fig5Cloudburst measures the sum function with warm (hot) or evicted
// (cold) caches; 7 execution VMs as in the paper. The second result is
// the KVS read round trips per request over the measured window.
func fig5Cloudburst(cfg Fig5Config, a workload.ArraySum, cold bool) (Summary, float64) {
	ccfg := cb.DefaultConfig()
	ccfg.Seed = cfg.Seed
	ccfg.VMs = 7
	ccfg.AnnaNodes = 4
	c := cb.NewCluster(ccfg)
	defer c.Close()
	if err := a.Register(c); err != nil {
		panic(err)
	}
	a.Preload(c, 0)
	args := a.RefArgs(0)
	name := "Cloudburst (Hot)"
	if cold {
		name = "Cloudburst (Cold)"
	}
	want := a.Expected()
	var durs []time.Duration
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second) })
	if !cold {
		warmSum(c, args, 5*time.Minute, "fig5")
	}
	readRTTs := func() int64 {
		var n int64
		for _, vm := range c.Internal().VMs() {
			st := vm.Cache.KVSStats()
			n += st.GetRPCs + st.MultiGetRPCs
		}
		return n
	}
	rttBefore := readRTTs()
	c.RunN(cfg.Clients, func(i int, cl *cb.Client) {
		cl.Timeout = 5 * time.Minute
		for t := 0; t < cfg.Trials; t++ {
			if cold {
				a.EvictEverywhere(c, 0)
			}
			start := cl.Now()
			out, err := cb.As[float64](cl.Invoke("sum10", args))
			if err != nil {
				panic(fmt.Sprintf("fig5 %s: %v", name, err))
			}
			if out != want {
				panic(fmt.Sprintf("fig5: sum = %v, want %v", out, want))
			}
			durs = append(durs, cl.Now()-start)
		}
	})
	perReq := float64(readRTTs()-rttBefore) / float64(cfg.Clients*cfg.Trials)
	return Summarize(name, durs), perReq
}

// warmSum invokes the sum over args three times, which warms the caches,
// then waits for the keyset metrics to reach the schedulers, so the
// locality policy can route to cached copies ("every retrieval after the
// first is a cache hit", §6.1.2).
func warmSum(c *cb.Cluster, args []any, timeout time.Duration, what string) {
	c.Run(func(cl *cb.Client) {
		cl.Timeout = timeout
		for w := 0; w < 3; w++ {
			if _, err := cl.Invoke("sum10", args).Wait(); err != nil {
				panic(fmt.Sprintf("%s warmup: %v", what, err))
			}
		}
		cl.Sleep(5 * time.Second)
	})
}

// fig5Lambda measures the Lambda implementation fetching the arrays from
// a storage service in parallel.
func fig5Lambda(cfg Fig5Config, a workload.ArraySum, store string) Summary {
	r := newBaselineRig(cfg.Seed + int64(len(store)))
	defer r.k.Stop()
	payload := make([]byte, a.Elems*8)
	keys := a.Keys(0)
	for _, key := range keys {
		r.svc[store].Preload(key, payload)
	}
	l := baseline.NewLambda(r.k, r.env)
	sum := func(env *baseline.Env) any {
		wg := vtime.NewWaitGroup(r.k)
		for _, key := range keys {
			key := key
			wg.Add(1)
			r.k.Go("fetch", func() {
				defer wg.Done()
				if _, found, err := env.Stores[store].Get(key); err != nil || !found {
					panic(fmt.Sprintf("fig5 lambda fetch %s: found=%v err=%v", key, found, err))
				}
			})
		}
		wg.Wait()
		env.Compute(workload.SumCompute(a.TotalBytes()))
		return nil
	}
	name := map[string]string{"redis": "Lambda (Redis)", "s3": "Lambda (S3)"}[store]
	var durs []time.Duration
	wg := vtime.NewWaitGroup(r.k)
	r.k.Run("fig5-"+store, func() {
		for cIdx := 0; cIdx < cfg.Clients; cIdx++ {
			wg.Add(1)
			r.k.Go("client", func() {
				defer wg.Done()
				for t := 0; t < cfg.Trials; t++ {
					start := r.k.Now()
					l.Invoke(sum)
					durs = append(durs, time.Duration(r.k.Now()-start))
				}
			})
		}
		wg.Wait()
	})
	return Summarize(name, durs)
}
