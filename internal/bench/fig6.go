package bench

import (
	"fmt"
	"time"

	cb "cloudburst"
	"cloudburst/internal/baseline"
	"cloudburst/internal/vtime"
	"cloudburst/internal/workload"
)

// Fig6Config parameterizes the §6.1.3 distributed-aggregation
// experiment.
type Fig6Config struct {
	Rounds int // sequential aggregation rounds; the paper runs 1000
	Seed   int64
}

// fig6Actors is the participants per round, as in the paper.
const fig6Actors = 10

// Fig6Quick returns CI-friendly parameters.
func Fig6Quick() Fig6Config { return Fig6Config{Rounds: 40, Seed: 13} }

// Fig6Paper returns the paper's parameters.
func Fig6Paper() Fig6Config { return Fig6Config{Rounds: 1000, Seed: 13} }

// Fig6Result holds one summary per protocol/system.
type Fig6Result struct {
	Rows []Summary
}

// Print renders the figure.
func (r Fig6Result) Print() string {
	return Table("Figure 6: distributed aggregation (per-round latency)", LatencyHeader, SummaryRows(r.Rows))
}

// RunFig6 measures gossip-based aggregation on Cloudburst against
// gather-style aggregation on Cloudburst and on Lambda over Redis,
// DynamoDB, and S3.
func RunFig6(cfg Fig6Config) Fig6Result {
	var rows []Summary
	gossip, gather := fig6Cloudburst(cfg)
	rows = append(rows, gossip, gather)
	for _, store := range []string{"redis", "dynamo", "s3"} {
		rows = append(rows, fig6LambdaGather(cfg, store))
	}
	return Fig6Result{Rows: rows}
}

// fig6Cloudburst runs both the gossip protocol (direct messaging) and
// the gather workaround on a 4-VM (12-thread) cluster, as in §6.1.3.
func fig6Cloudburst(cfg Fig6Config) (gossip, gather Summary) {
	ccfg := cb.DefaultConfig()
	ccfg.Seed = cfg.Seed
	ccfg.VMs = 4
	c := cb.NewCluster(ccfg)
	defer c.Close()
	g := workload.DefaultGossip()
	g.Actors = fig6Actors
	if err := g.Register(c); err != nil {
		panic(err)
	}
	var gossipDurs, gatherDurs []time.Duration
	c.Run(func(cl *cb.Client) {
		cl.Timeout = 2 * time.Minute
		cl.Sleep(3 * time.Second)
		values := make([]float64, fig6Actors)
		for round := 0; round < cfg.Rounds; round++ {
			for i := range values {
				values[i] = 10 + float64((round*7+i*13)%50)
			}
			d, err := g.RunRound(cl, round, values)
			if err != nil {
				panic(fmt.Sprintf("fig6 gossip round %d: %v", round, err))
			}
			gossipDurs = append(gossipDurs, d)
		}
		for round := 0; round < cfg.Rounds; round++ {
			for i := range values {
				values[i] = 10 + float64((round*3+i*17)%50)
			}
			d, err := g.RunGatherRound(cl, round, values)
			if err != nil {
				panic(fmt.Sprintf("fig6 gather round %d: %v", round, err))
			}
			gatherDurs = append(gatherDurs, d)
		}
	})
	return Summarize("Cloudburst (gossip)", gossipDurs), Summarize("Cloudburst (gather)", gatherDurs)
}

// fig6LambdaGather runs the fixed-membership gather workaround on
// Lambda: per round, ten publisher lambdas write their metric to the
// storage service and a leader lambda polls until all are visible, then
// averages. Submissions go through the provider API sequentially (as a
// boto3 loop would); eventual-consistency visibility lag is what makes
// the slower stores so much worse (§6.1.3).
func fig6LambdaGather(cfg Fig6Config, store string) Summary {
	r := newBaselineRig(cfg.Seed + int64(len(store)))
	defer r.k.Stop()
	l := baseline.NewLambda(r.k, r.env)
	apiSubmit := 7 * time.Millisecond // per-invocation API call from the driver
	pollEvery := 20 * time.Millisecond

	name := map[string]string{
		"redis":  "Lambda+Redis (gather)",
		"dynamo": "Lambda+Dynamo (gather)",
		"s3":     "Lambda+S3 (gather)",
	}[store]
	return r.trials("fig6-lambda-"+store, name, cfg.Rounds, func(round int) {
		wg := vtime.NewWaitGroup(r.k)
		for i := 0; i < fig6Actors; i++ {
			key := fmt.Sprintf("agg/%d/%d", round, i)
			r.k.Sleep(apiSubmit)
			wg.Add(1)
			r.k.Go("publisher", func() {
				defer wg.Done()
				l.Invoke(func(env *baseline.Env) any {
					env.Stores[store].Put(key, []byte("41.5"))
					return nil
				})
			})
		}
		r.k.Sleep(apiSubmit)
		leaderDone := vtime.NewChan[bool](r.k, -1)
		r.k.Go("leader", func() {
			l.Invoke(func(env *baseline.Env) any {
				for i := 0; i < fig6Actors; i++ {
					key := fmt.Sprintf("agg/%d/%d", round, i)
					for {
						_, found, err := env.Stores[store].Get(key)
						if err == nil && found {
							break
						}
						env.Compute(pollEvery)
					}
				}
				return nil
			})
			leaderDone.Send(true)
		})
		wg.Wait()
		leaderDone.Recv()
	})
}
