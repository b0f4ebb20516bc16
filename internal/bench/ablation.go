package bench

import (
	"fmt"
	"time"

	cb "cloudburst"
	"cloudburst/internal/parallel"
	"cloudburst/internal/workload"
)

// AblationConfig parameterizes the design-choice ablations: each isolates
// one Cloudburst mechanism on the Figure 5 hot workload, where locality
// matters most. The locality ablation flips the scheduler's RandomPolicy;
// the caching one evicts before every read, so each read pays the
// internal/cache ipc hop plus an Anna round trip.
type AblationConfig struct {
	Elems   int // per-array elements (100k = 8MB total: the paper's sweet spot)
	Clients int
	Trials  int
	Seed    int64
}

// AblationQuick returns CI-friendly parameters.
func AblationQuick() AblationConfig {
	return AblationConfig{Elems: 100_000, Clients: 4, Trials: 10, Seed: 43}
}

// AblationPair compares a mechanism on vs off.
type AblationPair struct {
	Locality Summary // mechanism on (field names match the first ablation)
	Random   Summary // mechanism off
	Cached   Summary
	Uncached Summary
}

// Print renders whichever pair is populated.
func (r AblationPair) Print() string {
	var rows []Summary
	if r.Locality.N > 0 {
		rows = append(rows, r.Locality, r.Random)
	}
	if r.Cached.N > 0 {
		rows = append(rows, r.Cached, r.Uncached)
	}
	return Table("Ablation", LatencyHeader, SummaryRows(rows))
}

// RunAblationLocality measures the §4.3 locality-aware scheduling
// policy against random placement. The workload spreads requests over
// many distinct array sets (more than there are VMs): the locality
// policy routes each set's requests back to the VM that cached it, while
// random placement keeps landing on VMs that cached a different set and
// misses to Anna.
func RunAblationLocality(cfg AblationConfig) AblationPair {
	const sets = 24
	run := func(random bool) Summary {
		name := "locality scheduling"
		if random {
			name = "random scheduling"
		}
		a := workload.ArraySum{NumArrays: 10, Elems: cfg.Elems / 5}
		ccfg := cb.DefaultConfig()
		ccfg.Seed = cfg.Seed
		ccfg.VMs = 7
		ccfg.AnnaNodes = 4
		ccfg.RandomScheduling = random
		c := cb.NewCluster(ccfg)
		defer c.Close()
		if err := a.Register(c); err != nil {
			panic(err)
		}
		for s := 0; s < sets; s++ {
			a.Preload(c, s)
		}
		var durs []time.Duration
		// Warm: touch every set once so each lives in some cache, then
		// let keyset metrics reach the scheduler.
		c.Run(func(cl *cb.Client) {
			cl.Timeout = time.Minute
			for s := 0; s < sets; s++ {
				if _, err := cl.Invoke("sum10", a.RefArgs(s)).Wait(); err != nil {
					panic(fmt.Sprintf("locality warmup: %v", err))
				}
			}
			cl.Sleep(5 * time.Second)
		})
		c.RunN(cfg.Clients, func(i int, cl *cb.Client) {
			cl.Timeout = time.Minute
			rng := cl.Kernel().Rand()
			for t := 0; t < cfg.Trials*2; t++ {
				set := rng.Intn(sets)
				start := cl.Now()
				if _, err := cl.Invoke("sum10", a.RefArgs(set)).Wait(); err != nil {
					panic(fmt.Sprintf("ablation %s: %v", name, err))
				}
				durs = append(durs, cl.Now()-start)
			}
		})
		return Summarize(name, durs)
	}
	rows := parallel.MapN(2, func(i int) Summary { return run(i == 1) })
	return AblationPair{Locality: rows[0], Random: rows[1]}
}

// RunAblationCaching measures the co-located cache itself: the same
// workload with every key evicted before each request (all reads go to
// Anna), quantifying the LDPC colocation benefit.
func RunAblationCaching(cfg AblationConfig) AblationPair {
	rows := parallel.MapN(2, func(i int) Summary {
		if i == 0 {
			return ablationRun(cfg, "with cache", false)
		}
		return ablationRun(cfg, "cache disabled", true)
	})
	return AblationPair{Cached: rows[0], Uncached: rows[1]}
}

func ablationRun(cfg AblationConfig, name string, evict bool) Summary {
	a := workload.ArraySum{NumArrays: 10, Elems: cfg.Elems}
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
	var durs []time.Duration
	warmSum(c, args, time.Minute, "ablation")
	c.RunN(cfg.Clients, func(i int, cl *cb.Client) {
		cl.Timeout = time.Minute
		for t := 0; t < cfg.Trials; t++ {
			if evict {
				a.EvictEverywhere(c, 0)
			}
			start := cl.Now()
			if _, err := cl.Invoke("sum10", args).Wait(); err != nil {
				panic(fmt.Sprintf("ablation %s: %v", name, err))
			}
			durs = append(durs, cl.Now()-start)
		}
	})
	return Summarize(name, durs)
}
