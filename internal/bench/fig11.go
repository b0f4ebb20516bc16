package bench

import (
	"fmt"
	"math/rand"
	"time"

	cb "cloudburst"
	"cloudburst/internal/parallel"
	"cloudburst/internal/vtime"
	"cloudburst/internal/workload"
)

// Fig11Config parameterizes the §6.3.2 Retwis comparison.
type Fig11Config struct {
	Retwis   workload.Retwis
	Clients  int // 10 in the paper
	Requests int // per client (5000 in the paper)
	Seed     int64
}

// Fig11Quick returns CI-friendly parameters.
func Fig11Quick() Fig11Config {
	r := workload.DefaultRetwis()
	r.Users = 300
	r.Tweets = 1200
	return Fig11Config{Retwis: r, Clients: 6, Requests: 60, Seed: 37}
}

// Fig11Paper returns the paper's parameters.
func Fig11Paper() Fig11Config {
	return Fig11Config{Retwis: workload.DefaultRetwis(), Clients: 10, Requests: 5000, Seed: 37}
}

// Fig11Row is one system's digest, with the anomaly rate over timeline
// requests.
type Fig11Row struct {
	Summary     Summary
	AnomalyRate float64
}

// Fig11Result holds all three configurations.
type Fig11Result struct {
	Rows []Fig11Row
}

// Print renders the figure.
func (r Fig11Result) Print() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Summary.Name,
			fmt.Sprintf("%d", row.Summary.N),
			fmt.Sprintf("%.2f", row.Summary.Median),
			fmt.Sprintf("%.2f", row.Summary.P99),
			fmt.Sprintf("%.1f%%", row.AnomalyRate*100),
		}
	}
	return Table("Figure 11: Retwis latency and timeline anomalies",
		[]string{"system", "n", "median(ms)", "p99(ms)", "anomalous timelines"}, rows)
}

// RunFig11 compares Cloudburst in LWW and causal modes against the
// serverful Redis deployment, all with 10 worker threads and 1 KVS node
// as in the paper.
func RunFig11(cfg Fig11Config) Fig11Result {
	rows := parallel.MapN(3, func(i int) Fig11Row {
		switch i {
		case 0:
			return fig11Cloudburst(cfg, cb.LWW, "Cloudburst (LWW)")
		case 1:
			return fig11Cloudburst(cfg, cb.Causal, "Cloudburst (Causal)")
		default:
			return fig11Redis(cfg)
		}
	})
	return Fig11Result{Rows: rows}
}

func fig11Cloudburst(cfg Fig11Config, mode cb.Consistency, name string) Fig11Row {
	ccfg := cb.DefaultConfig()
	ccfg.Seed = cfg.Seed
	ccfg.Mode = mode
	ccfg.VMs = 5
	ccfg.ThreadsPerVM = 2 // 10 worker threads, as in the paper
	// The paper uses one KVS node; our storage node is single-threaded
	// where Anna's is multi-threaded shared-nothing, so two nodes is
	// the closer equivalent (and lets unordered write-backs race, the
	// §6.3.2 anomaly mechanism).
	ccfg.AnnaNodes = 2
	c := cb.NewCluster(ccfg)
	defer c.Close()
	r := cfg.Retwis
	if err := r.Register(c); err != nil {
		panic(err)
	}
	g := r.Generate(rand.New(rand.NewSource(cfg.Seed)))
	r.Preload(c, g)

	var durs []time.Duration
	timelines, anomalies := 0, 0
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second) })
	c.RunN(cfg.Clients, func(i int, cl *cb.Client) {
		cl.Timeout = time.Minute
		rng := rand.New(rand.NewSource(cfg.Seed + 100 + int64(i)))
		for t := 0; t < cfg.Requests; t++ {
			start := cl.Now()
			res, err := r.Request(cl, rng, g)
			if err != nil {
				continue // re-executed requests surface occasionally
			}
			durs = append(durs, cl.Now()-start)
			if res != nil {
				timelines++
				if res.Anomalies > 0 {
					anomalies++
				}
			}
		}
	})
	row := Fig11Row{Summary: Summarize(name, durs)}
	if timelines > 0 {
		row.AnomalyRate = float64(anomalies) / float64(timelines)
	}
	return row
}

func fig11Redis(cfg Fig11Config) Fig11Row {
	rig := newBaselineRig(cfg.Seed + 3)
	defer rig.k.Stop()
	redis := rig.svc["redis"]
	ro := workload.RedisOps{R: cfg.Retwis, Redis: rig.env.Stores["redis"]}
	g := cfg.Retwis.Generate(rand.New(rand.NewSource(cfg.Seed)))
	ro.Preload(g, redis.Preload)

	var durs []time.Duration
	timelines, anomalies := 0, 0
	rig.k.Run("fig11-redis", func() {
		wg := vtime.NewWaitGroup(rig.k)
		for i := 0; i < cfg.Clients; i++ {
			i := i
			wg.Add(1)
			rig.k.Go("webserver", func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + 100 + int64(i)))
				seq := 0
				for t := 0; t < cfg.Requests; t++ {
					u := rng.Intn(cfg.Retwis.Users)
					start := rig.k.Now()
					if rng.Float64() < 0.10 {
						reply := ""
						if rng.Intn(2) == 0 && len(g.PostIDs) > 0 {
							reply = g.PostIDs[rng.Intn(len(g.PostIDs))]
						}
						seq++
						id := fmt.Sprintf("live-%d-%d", i, seq)
						if err := ro.Post(u, id, "live", reply, time.Duration(rig.k.Now())); err != nil {
							continue
						}
					} else {
						res, err := ro.Timeline(u)
						if err != nil {
							continue
						}
						timelines++
						if res.Anomalies > 0 {
							anomalies++
						}
					}
					durs = append(durs, time.Duration(rig.k.Now()-start))
				}
			})
		}
		wg.Wait()
	})
	row := Fig11Row{Summary: Summarize("Redis (serverful)", durs)}
	if timelines > 0 {
		row.AnomalyRate = float64(anomalies) / float64(timelines)
	}
	return row
}

// Fig12Config parameterizes the Retwis scaling sweep (causal mode).
type Fig12Config struct {
	Retwis   workload.Retwis
	Threads  []int
	Requests int
	Seed     int64
}

// Fig12Quick returns CI-friendly parameters.
func Fig12Quick() Fig12Config {
	r := workload.DefaultRetwis()
	r.Users = 300
	r.Tweets = 1200
	return Fig12Config{Retwis: r, Threads: []int{10, 20, 40}, Requests: 30, Seed: 41}
}

// Fig12Paper returns the paper's sweep.
func Fig12Paper() Fig12Config {
	return Fig12Config{Retwis: workload.DefaultRetwis(), Threads: []int{10, 20, 40, 80, 160}, Requests: 300, Seed: 41}
}

// Fig12Row is one sweep point.
type Fig12Row struct {
	Threads       int
	Summary       Summary
	ThroughputKOp float64
	CacheMissRate float64
}

// Fig12Result is the scaling curve.
type Fig12Result struct {
	Rows []Fig12Row
}

// Print renders the curve.
func (r Fig12Result) Print() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			fmt.Sprintf("%d", row.Threads),
			fmt.Sprintf("%.2f", row.Summary.Median),
			fmt.Sprintf("%.2f", row.Summary.P99),
			fmt.Sprintf("%.2f", row.ThroughputKOp),
			fmt.Sprintf("%.0f%%", row.CacheMissRate*100),
		}
	}
	return Table("Figure 12: Retwis scaling (causal mode)",
		[]string{"threads", "median(ms)", "p99(ms)", "Kops/s", "cache miss"}, rows)
}

// RunFig12 sweeps executor threads with clients = threads, in causal
// mode. Each ladder rung is an independent cluster, so the sweep runs
// as parallel tasks; rows land by rung index.
func RunFig12(cfg Fig12Config) Fig12Result {
	rows := parallel.Map(cfg.Threads, func(_ int, threads int) Fig12Row {
		return fig12Point(cfg, threads)
	})
	return Fig12Result{Rows: rows}
}

// fig12Point runs one thread-ladder rung on a fresh cluster.
func fig12Point(cfg Fig12Config, threads int) Fig12Row {
	vms := (threads + 1) / 2
	ccfg := cb.DefaultConfig()
	ccfg.Seed = cfg.Seed
	ccfg.Mode = cb.Causal
	ccfg.VMs = vms
	ccfg.ThreadsPerVM = 2
	ccfg.AnnaNodes = threads/8 + 2 // storage scales with the compute sweep
	c := cb.NewCluster(ccfg)
	defer c.Close()
	r := cfg.Retwis
	if err := r.Register(c); err != nil {
		panic(err)
	}
	g := r.Generate(rand.New(rand.NewSource(cfg.Seed)))
	r.Preload(c, g)

	var durs []time.Duration
	var startT, endT time.Duration
	completed := 0
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second); startT = time.Duration(cl.Now()) })
	c.RunN(threads, func(i int, cl *cb.Client) {
		cl.Timeout = time.Minute
		rng := rand.New(rand.NewSource(cfg.Seed + 200 + int64(i)))
		for t := 0; t < cfg.Requests; t++ {
			s := cl.Now()
			if _, err := r.Request(cl, rng, g); err != nil {
				continue
			}
			completed++
			durs = append(durs, cl.Now()-s)
		}
	})
	c.Run(func(cl *cb.Client) { endT = time.Duration(cl.Now()) })

	var hits, misses int64
	for _, vm := range c.Internal().VMs() {
		hits += vm.Cache.Stats.Hits
		misses += vm.Cache.Stats.Misses
	}
	missRate := 0.0
	if hits+misses > 0 {
		missRate = float64(misses) / float64(hits+misses)
	}
	return Fig12Row{
		Threads:       threads,
		Summary:       Summarize(fmt.Sprintf("%d threads", threads), durs),
		ThroughputKOp: float64(completed) / (endT - startT).Seconds() / 1000,
		CacheMissRate: missRate,
	}
}
