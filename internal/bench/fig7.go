package bench

import (
	"fmt"
	"math/rand"
	"time"

	cb "cloudburst"
	"cloudburst/internal/workload"
)

// Fig7Config parameterizes the §6.1.4 autoscaling experiment.
type Fig7Config struct {
	InitialVMs int           // ×3 threads each; the paper starts at 60 VMs (180 threads)
	Clients    int           // closed-loop clients (the paper uses 400)
	Keys       int           // Zipf(1.0) keyspace (the paper uses 1M)
	LoadFor    time.Duration // client duration (the paper runs 10 min)
	DrainFor   time.Duration // observation window after clients stop
	VMSpinUp   time.Duration // EC2 boot delay (2.5 min in the paper)
	ScaleUpVMs int           // VMs added per saturation event (20)
	Seed       int64
}

// fig7MaxVMFactor caps the fleet at InitialVMs × factor (the paper
// doubles).
const fig7MaxVMFactor = 2

// Fig7Quick returns CI-friendly parameters (everything scaled ~1/8).
// The client count is set well past the initial fleet's capacity knee
// so saturation is decisive: 88 closed-loop clients against 24 threads
// put the fleet far over both the 0.70-utilization threshold and the
// monitor's backlog-per-thread signal, instead of parking the policy on
// the knife edge where small schedule changes switched the VM-add
// trigger on and off (EXPERIMENTS.md, "Harness cost trajectory").
func Fig7Quick() Fig7Config {
	return Fig7Config{
		InitialVMs: 8, Clients: 88, Keys: 50_000,
		LoadFor: 150 * time.Second, DrainFor: 40 * time.Second,
		VMSpinUp: 30 * time.Second, ScaleUpVMs: 4, Seed: 17,
	}
}

// Fig7Paper returns the paper's configuration.
func Fig7Paper() Fig7Config {
	return Fig7Config{
		InitialVMs: 60, Clients: 400, Keys: 1_000_000,
		LoadFor: 10 * time.Minute, DrainFor: 3 * time.Minute,
		VMSpinUp: 150 * time.Second, ScaleUpVMs: 20, Seed: 17,
	}
}

// Fig7Sample is one second of the timeline.
type Fig7Sample struct {
	AtS        float64
	Throughput float64 // requests/second completed
	Replicas   int     // threads pinned with the function
	VMs        int
}

// Fig7Result is the timeline plus the index-overhead digest.
type Fig7Result struct {
	Samples        []Fig7Sample
	ScaleEvents    []string
	IndexMedianB   int
	IndexP99B      int
	IndexKeys      int
	PeakThroughput float64
}

// Print renders the timeline (downsampled) and overhead stats.
func (r Fig7Result) Print() string {
	rows := make([][]string, 0, len(r.Samples))
	step := len(r.Samples)/40 + 1
	for i := 0; i < len(r.Samples); i += step {
		s := r.Samples[i]
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", s.AtS),
			fmt.Sprintf("%.0f", s.Throughput),
			fmt.Sprintf("%d", s.Replicas),
			fmt.Sprintf("%d", s.VMs),
		})
	}
	out := Table("Figure 7: autoscaling timeline", []string{"t(s)", "req/s", "replicas", "vms"}, rows)
	out += fmt.Sprintf("peak throughput: %.0f req/s\n", r.PeakThroughput)
	out += fmt.Sprintf("key→cache index overhead per key: median %dB, p99 %dB over %d keys\n",
		r.IndexMedianB, r.IndexP99B, r.IndexKeys)
	for _, e := range r.ScaleEvents {
		out += "  event: " + e + "\n"
	}
	return out
}

// RunFig7 drives the closed-loop load against the autoscaling cluster
// and samples throughput and replica counts every second.
func RunFig7(cfg Fig7Config) Fig7Result {
	ccfg := cb.DefaultConfig()
	ccfg.Seed = cfg.Seed
	ccfg.VMs = cfg.InitialVMs
	ccfg.AnnaNodes = 4
	ccfg.Autoscale = true
	ccfg.VMSpinUp = cfg.VMSpinUp
	ccfg.ScaleUpVMs = cfg.ScaleUpVMs
	ccfg.MaxVMs = cfg.InitialVMs * fig7MaxVMFactor
	ccfg.MinPinned = 2
	c := cb.NewCluster(ccfg)
	defer c.Close()
	in := c.Internal()

	// The workload function: sleep 50ms, read two Zipf keys, write one.
	if err := c.RegisterFunction("sleeper", func(ctx *cb.Ctx, args []any) (any, error) {
		ctx.Compute(50 * time.Millisecond)
		return nil, ctx.Put(args[2].(string), "x")
	}); err != nil {
		panic(err)
	}
	if err := c.RegisterDAG(cb.LinearDAG("sleeper-dag", "sleeper"), 2); err != nil {
		panic(err)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	keys := workload.NewKeyspace(rng, "askey", cfg.Keys, 1.0)
	keys.Preload(c, 8)

	completed := 0
	var samples []Fig7Sample
	stop := false

	c.Run(func(cl *cb.Client) {
		k := cl.Kernel()
		// Sampler: once per second record throughput and replica count.
		k.Go("sampler", func() {
			last := 0
			for !stop {
				k.Sleep(time.Second)
				samples = append(samples, Fig7Sample{
					AtS:        k.Now().Seconds(),
					Throughput: float64(completed - last),
					Replicas:   in.Monitor.Pins("sleeper"),
					VMs:        in.VMCount(),
				})
				last = completed
			}
		})
		cl.Sleep(3 * time.Second)
	})

	// Closed-loop clients for LoadFor.
	c.RunN(cfg.Clients, func(i int, cl *cb.Client) {
		cl.Timeout = 2 * time.Minute
		crng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		ks := workload.NewKeyspace(crng, "askey", cfg.Keys, 1.0)
		deadline := time.Duration(cl.Now()) + cfg.LoadFor
		for time.Duration(cl.Now()) < deadline {
			args := map[string][]any{"sleeper": {
				cb.Ref(ks.Sample()), cb.Ref(ks.Sample()), ks.Sample(),
			}}
			if _, err := cl.InvokeDAG("sleeper-dag", args).Wait(); err != nil {
				continue // timeouts during saturation are part of the story
			}
			completed++
		}
	})

	// Drain window: observe scale-down.
	c.Run(func(cl *cb.Client) {
		cl.Sleep(cfg.DrainFor)
		stop = true
		cl.Sleep(2 * time.Second)
	})

	res := Fig7Result{Samples: samples}
	for _, s := range samples {
		if s.Throughput > res.PeakThroughput {
			res.PeakThroughput = s.Throughput
		}
	}
	for _, e := range in.Monitor.Events {
		res.ScaleEvents = append(res.ScaleEvents, fmt.Sprintf("t=%.0fs %s", e.At.Seconds(), e.Action))
	}
	overheads := in.KV.IndexOverheads()
	res.IndexKeys = len(overheads)
	res.IndexMedianB = PercentileInts(overheads, 0.50)
	res.IndexP99B = PercentileInts(overheads, 0.99)
	return res
}
