package bench

import (
	"fmt"
	"time"

	cb "cloudburst"
	"cloudburst/internal/baseline"
	"cloudburst/internal/cloud"
	"cloudburst/internal/parallel"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
	"cloudburst/internal/workload"
)

// Fig1Config parameterizes the §6.1.1 function-composition experiment.
type Fig1Config struct {
	Trials int // serial requests per system; the paper uses 1000
	Seed   int64
}

// Fig1Quick returns CI-friendly parameters.
func Fig1Quick() Fig1Config { return Fig1Config{Trials: 150, Seed: 7} }

// Fig1Paper returns the paper's parameters.
func Fig1Paper() Fig1Config { return Fig1Config{Trials: 1000, Seed: 7} }

// Fig1Result holds one summary per system, in the figure's order.
type Fig1Result struct {
	Rows []Summary
}

// Print renders the figure as a table.
func (r Fig1Result) Print() string {
	return Table("Figure 1: square(increment(x)) composition latency", LatencyHeader, SummaryRows(r.Rows))
}

// RunFig1 measures median/p99 latency of the two-function composition
// square(increment(x)) on Cloudburst and every comparison system, plus
// the single-function "stateless" baselines. The four rigs are
// independent simulations, so they run as parallel tasks; rows are
// stitched back in figure order, keeping the table byte-identical to a
// serial run.
func RunFig1(cfg Fig1Config) Fig1Result {
	groups := parallel.MapN(4, func(i int) []Summary {
		switch i {
		case 0:
			return []Summary{fig1Cloudburst(cfg, false)}
		case 1:
			return fig1Baselines(cfg)
		case 2:
			return []Summary{fig1Cloudburst(cfg, true)}
		default:
			return []Summary{fig1LambdaSingle(cfg)}
		}
	})
	var rows []Summary
	for _, g := range groups {
		rows = append(rows, g...)
	}
	return Fig1Result{Rows: rows}
}

// fig1Cloudburst measures the Cloudburst DAG (or single-function) path.
func fig1Cloudburst(cfg Fig1Config, single bool) Summary {
	ccfg := cb.DefaultConfig()
	ccfg.Seed = cfg.Seed
	ccfg.VMs = 1 // one executor with 3 worker threads, as in §6.1.1
	c := cb.NewCluster(ccfg)
	defer c.Close()
	if err := workload.ComposePipeline(c, 2); err != nil {
		panic(err)
	}
	name := "Cloudburst"
	var durs []time.Duration
	c.Run(func(cl *cb.Client) {
		cl.Sleep(3 * time.Second) // warm views
		for i := 0; i < cfg.Trials; i++ {
			start := cl.Now()
			var err error
			if single {
				_, err = cl.Invoke("square", []any{i}).Wait()
			} else {
				_, err = cl.InvokeDAG("composition", map[string][]any{"increment": {i}}).Wait()
			}
			if err != nil {
				panic(fmt.Sprintf("fig1 cloudburst: %v", err))
			}
			durs = append(durs, cl.Now()-start)
		}
	})
	if single {
		name = "CB (Single)"
	}
	return Summarize(name, durs)
}

// baselineRig builds the shared kernel, network, and storage services
// for baseline experiments.
type baselineRig struct {
	k   *vtime.Kernel
	env *baseline.Env
	svc map[string]*cloud.Service
}

func newBaselineRig(seed int64) *baselineRig {
	k := vtime.NewKernel(seed)
	net := simnet.New(k, simnet.Link{
		Latency:   simnet.LogNormal{Med: 200 * time.Microsecond, Sigma: 0.25},
		Bandwidth: 1.25e9,
	})
	r := &baselineRig{k: k, svc: make(map[string]*cloud.Service)}
	profiles := map[string]cloud.Profile{
		"s3":     cloud.S3Profile(),
		"dynamo": cloud.DynamoProfile(),
		"redis":  cloud.RedisProfile(),
	}
	clientEP := net.AddNode("baseline-client")
	stores := make(map[string]*cloud.Client, len(profiles))
	for _, name := range []string{"s3", "dynamo", "redis"} {
		svc := cloud.NewService(k, net.AddNode(simnet.NodeID("svc-"+name)), profiles[name])
		r.svc[name] = svc
		stores[name] = svc.NewClient(clientEP)
	}
	r.env = &baseline.Env{K: k, Stores: stores}
	return r
}

// trials runs op(i) for i in [0, n) back to back in one kernel process
// named proc and digests each call's latency under name.
func (r *baselineRig) trials(proc, name string, n int, op func(i int)) Summary {
	var durs []time.Duration
	r.k.Run(proc, func() {
		for i := 0; i < n; i++ {
			start := r.k.Now()
			op(i)
			durs = append(durs, time.Duration(r.k.Now()-start))
		}
	})
	return Summarize(name, durs)
}

// fig1Baselines measures Dask, SAND, Lambda variants, and Step Functions
// on the composition workload.
func fig1Baselines(cfg Fig1Config) []Summary {
	r := newBaselineRig(cfg.Seed + 1)
	defer r.k.Stop()

	inc := func(env *baseline.Env) any { return nil } // minimal compute
	sq := func(env *baseline.Env) any { return nil }

	l := baseline.NewLambda(r.k, r.env)
	systems := []struct {
		name string
		run  func()
	}{
		{"Dask", func() { baseline.NewDask(r.k, r.env).RunChain(inc, sq) }},
		{"SAND", func() { baseline.NewSAND(r.k, r.env).RunChain(inc, sq) }},
		{"Lambda (Direct)", func() { l.InvokeChain(inc, sq) }},
		{"Lambda (Dynamo)", func() { l.InvokeChainVia("dynamo", 64, inc, sq) }},
		{"Lambda (S3)", func() { l.InvokeChainVia("s3", 64, inc, sq) }},
		{"Step Functions", func() { baseline.NewStepFunctions(l).RunChain(inc, sq) }},
	}
	out := make([]Summary, 0, len(systems))
	for _, sys := range systems {
		out = append(out, r.trials("fig1-"+sys.name, sys.name, cfg.Trials, func(int) { sys.run() }))
	}
	return out
}

// fig1LambdaSingle measures the single-function Lambda baseline.
func fig1LambdaSingle(cfg Fig1Config) Summary {
	r := newBaselineRig(cfg.Seed + 2)
	defer r.k.Stop()
	l := baseline.NewLambda(r.k, r.env)
	return r.trials("fig1-lambda-single", "Lambda (Single)", cfg.Trials, func(int) {
		l.Invoke(func(env *baseline.Env) any { return nil })
	})
}
