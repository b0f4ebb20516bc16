package main

// The four workloads. Each stresses a different set of layers (README.md
// has the reasoning and the interaction table); each is generated from the
// seed alone and checks every output it receives.

import (
	"fmt"
	"math/rand"
	"time"

	cb "cloudburst"
	"cloudburst/internal/traffic"
	gen "cloudburst/internal/workload"
)

// workload is one benchmark workload.
type workload struct {
	name string
	loop string // open or closed loop, with its rate or client count
	why  string
	// config sizes the cluster; the seed is also the simulation's seed.
	config func(seed int64) cb.Config
	// prepare registers functions, preloads data and warms the cluster up
	// (all of it set-up time), and returns the load phase.
	prepare func(c *cb.Cluster, seed int64, div int, sp *spanLog) (func(*loadResult), error)
}

// loadResult is what one load phase observed on the virtual clock.
type loadResult struct {
	lat       []time.Duration // latency of every completed request
	attempted int
	failed    int           // requests that returned an error, timed out or gave a wrong output
	simLoad   time.Duration // simulated time the completions are spread over
	maxLag    time.Duration // open loop: latest issue behind its due instant
	firstErr  string        // first request error, for the report
	wrong     string        // first output that failed its check; "" when all passed
	// endOfLoad, set by the runner, reads the counters that a drain phase
	// would lose (a removed VM takes its cache statistics with it).
	endOfLoad func()
}

// fail counts a request that ended in an error.
func (r *loadResult) fail(err error) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = err.Error()
	}
}

// wrongf counts a request whose output failed its check.
func (r *loadResult) wrongf(format string, args ...any) {
	r.failed++
	if r.wrong == "" {
		r.wrong = fmt.Sprintf(format, args...)
	}
}

// smokeDiv is the size divisor of a -smoke run.
const smokeDiv = 50

var workloads = []workload{hotOpen(), coldScan(), autoscaleSpike(), causalRW()}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// settle lets metrics publish and scheduler views warm, as every figure
// harness does before it measures.
func settle(c *cb.Cluster) {
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second) })
}

// ---- hot-open ----

const (
	hotKeys    = 1000
	hotRate    = 3500.0 // req/s, ~60% of what 18 threads sustain on this mix
	hotWindow  = 40 * time.Second
	hotWorkers = 256 // far above rate x latency, so no arrival waits for a worker
	hotCompute = time.Millisecond
	hotThreads = 18
)

func hotOpen() workload {
	return workload{
		name: "hot-open",
		loop: fmt.Sprintf("open loop, Poisson %.0f req/s for %v simulated", hotRate, hotWindow),
		why:  "request path only: client, scheduler, executor, cache hit, DAG trigger; Anna and monitor idle, so their changes must show ~0 here",
		config: func(seed int64) cb.Config {
			cfg := cb.DefaultConfig()
			cfg.Seed = seed
			cfg.VMs, cfg.ThreadsPerVM, cfg.Schedulers = hotThreads/3, 3, 2
			return cfg
		},
		prepare: prepareHotOpen,
	}
}

func prepareHotOpen(c *cb.Cluster, seed int64, div int, sp *spanLog) (func(*loadResult), error) {
	end := sp.begin("cluster.register")
	settle(c) // a DAG is pinned only on the threads the scheduler has heard from
	step := func(f func(int) int) cb.Function {
		return func(ctx *cb.Ctx, args []any) (any, error) {
			ctx.Compute(hotCompute)
			x, ok := args[0].(int)
			if !ok {
				return nil, fmt.Errorf("argument is %T, want int", args[0])
			}
			return f(x), nil
		}
	}
	fns := []struct {
		name string
		fn   cb.Function
	}{
		{"hot-sum", func(ctx *cb.Ctx, args []any) (any, error) {
			ctx.Compute(hotCompute)
			a, aok := args[0].(int)
			b, bok := args[1].(int)
			if !aok || !bok {
				return nil, fmt.Errorf("arguments are %T, %T, want int, int", args[0], args[1])
			}
			return a + b, nil
		}},
		{"hot-inc", step(func(x int) int { return x + 1 })},
		{"hot-dbl", step(func(x int) int { return 2 * x })},
	}
	for _, f := range fns {
		if err := c.RegisterFunction(f.name, f.fn); err != nil {
			return nil, err
		}
	}
	if err := c.RegisterDAG(cb.LinearDAG("hot-chain", "hot-sum", "hot-inc", "hot-dbl"), hotThreads); err != nil {
		return nil, err
	}
	end()

	ks := gen.NewKeyspace(rand.New(rand.NewSource(seed+101)), "hot", hotKeys, 1.0)
	end = sp.begin("workload.preload")
	var err error
	keys := make([]string, hotKeys)
	c.Run(func(cl *cb.Client) {
		for i := range keys {
			keys[i] = ks.Key(i)
			if perr := cl.Put(keys[i], i); perr != nil && err == nil {
				err = perr
			}
		}
	})
	end()
	if err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}

	// One request of the mix: 70% bare hot-sum, 30% the 3-function chain.
	mix := traffic.NewMix(seed+211, 70, 30)
	issue := func(cl *cb.Client) (fut *cb.Future, want int) {
		a, b := ks.SampleIndex(), ks.SampleIndex()
		refs := []any{cb.Ref(keys[a]), cb.Ref(keys[b])}
		if mix.Next() == 1 {
			return cl.InvokeDAG("hot-chain", map[string][]any{"hot-sum": refs}), 2 * (a + b + 1)
		}
		return cl.Invoke("hot-sum", refs), a + b
	}

	end = sp.begin("workload.warmup")
	warmCaches(c, keys) // the whole keyspace resident in every VM's cache
	c.Run(func(cl *cb.Client) {
		for i := 0; i < 200 && err == nil; i++ {
			fut, _ := issue(cl)
			_, err = fut.Wait()
		}
	})
	settle(c)
	end()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	return func(r *loadResult) {
		defer sp.begin("load")()
		arrivals := traffic.NewPoisson(seed*7919+1, hotRate)
		window := hotWindow / time.Duration(div)
		start := c.Now()
		done := false
		c.RunN(hotWorkers, func(_ int, cl *cb.Client) {
			for !done {
				off := arrivals.Next()
				if off > window {
					done = true
					return
				}
				// A free worker takes the next arrival and sleeps to its due
				// instant; latency counts from that instant, not from the send.
				due := start + off
				if d := due - cl.Now(); d > 0 {
					cl.Sleep(d)
				} else if -d > r.maxLag {
					r.maxLag = -d
				}
				fut, want := issue(cl)
				r.attempted++
				v, werr := fut.Wait()
				switch got, ok := v.(int); {
				case werr != nil:
					r.fail(werr)
				case !ok || got != want:
					r.wrongf("hot-open: result %v, want %d", v, want)
				default:
					r.lat = append(r.lat, cl.Now()-due)
				}
			}
		})
		r.simLoad = c.Now() - start
	}, nil
}

// ---- cold-scan ----

const (
	coldClients   = 4
	coldPerClient = 12000
	coldElems     = 10_000 // x 8 B x 10 arrays = 781 KB per request
)

// scanArrays is the cold-scan function body. It charges the simulated
// compute of summing its arrays, as fig5's sum10 does, but on the host it
// only samples three bytes of each: summing 781 KB per request took three
// quarters of the load phase's host CPU and hid the layers under test.
func scanArrays(ctx *cb.Ctx, args []any) (any, error) {
	sum, bytes := 0, 0
	for _, arg := range args {
		arr, ok := arg.([]byte)
		if !ok || len(arr) == 0 {
			return nil, fmt.Errorf("scan10: argument is %T, want a non-empty []byte", arg)
		}
		bytes += len(arr)
		sum += len(arr) + int(arr[0]) + int(arr[len(arr)/2]) + int(arr[len(arr)-1])
	}
	ctx.Compute(gen.SumCompute(bytes))
	return sum, nil
}

func coldScan() workload {
	a := gen.ArraySum{NumArrays: 10, Elems: coldElems}
	// ArraySum.Preload stores byte i of every array as i % 97.
	n := coldElems * 8
	want := a.NumArrays * (n + (n/2)%97 + (n-1)%97)
	return workload{
		name: "cold-scan",
		loop: fmt.Sprintf("closed loop, %d clients x %d requests", coldClients, coldPerClient),
		why:  "every request is 10 cache misses of 80 KB: Anna multi-get, lattice capsules, codec payload path and cache fill do the work, the hit path none",
		config: func(seed int64) cb.Config {
			cfg := cb.DefaultConfig()
			cfg.Seed = seed
			cfg.VMs, cfg.AnnaNodes = 7, 4
			return cfg
		},
		prepare: func(c *cb.Cluster, _ int64, div int, sp *spanLog) (func(*loadResult), error) {
			end := sp.begin("cluster.register")
			err := c.RegisterFunction("scan10", scanArrays)
			end()
			if err != nil {
				return nil, err
			}
			// Each client has its own set of arrays, so no other client's
			// request refills a cache between this one's eviction and read.
			end = sp.begin("workload.preload")
			for set := 0; set <= coldClients; set++ {
				a.Preload(c, set)
			}
			end()

			// Keys and arguments are built once: formatting 80 key names per
			// request (ArraySum.EvictEverywhere, RefArgs) was a fifth of the
			// load phase's host CPU.
			keys, args := make([][]string, coldClients+1), make([][]any, coldClients+1)
			for set := range keys {
				keys[set], args[set] = a.Keys(set), a.RefArgs(set)
			}
			request := func(cl *cb.Client, set int) (int, error) {
				evictEverywhere(c, keys[set])
				return cb.As[int](cl.Invoke("scan10", args[set]))
			}
			end = sp.begin("workload.warmup")
			settle(c)
			c.Run(func(cl *cb.Client) {
				for i := 0; i < 8 && err == nil; i++ {
					_, err = request(cl, coldClients)
				}
			})
			end()
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}

			return func(r *loadResult) {
				defer sp.begin("load")()
				start := c.Now()
				c.RunN(coldClients, func(set int, cl *cb.Client) {
					cl.Timeout = 5 * time.Minute
					for i := 0; i < max(coldPerClient/div, 4); i++ {
						t0 := cl.Now()
						r.attempted++
						switch got, err := request(cl, set); {
						case err != nil:
							r.fail(err)
						case got != want:
							r.wrongf("cold-scan: scan %d, want %d", got, want)
						default:
							r.lat = append(r.lat, cl.Now()-t0)
						}
					}
				})
				r.simLoad = c.Now() - start
			}, nil
		},
	}
}

// ---- autoscale-spike ----

const (
	spikeClients = 22 // of 24 threads: busy enough to scale up, never queued
	spikeKeys    = 50_000
	spikeLoad    = 30 * time.Second
	spikeDrain   = 3 * time.Second
	spikeVMs     = 8
	spikeThreads = 3 * spikeVMs
	spikePayload = 8 // bytes preloaded under each key
)

func autoscaleSpike() workload {
	return workload{
		name: "autoscale-spike",
		loop: fmt.Sprintf("closed loop, %d clients for %v simulated, then %v drain", spikeClients, spikeLoad, spikeDrain),
		why:  "few requests over 50k resident keys that writes keep dirtying, with autoscaling on: host time goes to Anna's background ticks and the control plane, not the request path",
		config: func(seed int64) cb.Config {
			cfg := cb.DefaultConfig()
			cfg.Seed = seed
			cfg.VMs, cfg.AnnaNodes = spikeVMs, 4
			cfg.Autoscale = true
			cfg.VMSpinUp = 10 * time.Second
			cfg.ScaleUpVMs, cfg.MaxVMs, cfg.MinPinned = 4, 2*spikeVMs, spikeThreads
			return cfg
		},
		prepare: func(c *cb.Cluster, seed int64, div int, sp *spanLog) (func(*loadResult), error) {
			end := sp.begin("cluster.register")
			settle(c) // a DAG is pinned only on the threads the scheduler has heard from
			err := c.RegisterFunction("sleeper", func(ctx *cb.Ctx, args []any) (any, error) {
				for _, arg := range args[:2] {
					key, _ := arg.(string)
					v, found, err := ctx.Get(key)
					if s, ok := v.(string); err != nil || !found || !ok || (s != "x" && len(s) != spikePayload) {
						return nil, fmt.Errorf("sleeper: read %q = %v, %v, %v", key, v, found, err)
					}
				}
				ctx.Compute(50 * time.Millisecond)
				key, ok := args[2].(string)
				if !ok {
					return nil, fmt.Errorf("sleeper: write key is %T, want string", args[2])
				}
				return key, ctx.Put(key, "x")
			})
			if err == nil {
				err = c.RegisterDAG(cb.LinearDAG("sleeper-dag", "sleeper"), spikeThreads)
			}
			end()
			if err != nil {
				return nil, err
			}
			nkeys := spikeKeys / div
			end = sp.begin("workload.preload")
			gen.NewKeyspace(rand.New(rand.NewSource(seed)), "askey", nkeys, 1.0).Preload(c, spikePayload)
			end()
			end = sp.begin("workload.warmup")
			settle(c)
			end()

			return func(r *loadResult) {
				endLoad := sp.begin("load")
				loadFor := max(spikeLoad/time.Duration(div), 2*time.Second)
				c.RunN(spikeClients, func(i int, cl *cb.Client) {
					cl.Timeout = 2 * time.Minute
					ks := gen.NewKeyspace(rand.New(rand.NewSource(seed*1000+int64(i))), "askey", nkeys, 1.0)
					deadline := cl.Now() + loadFor
					for cl.Now() < deadline {
						wkey := ks.Sample()
						args := map[string][]any{"sleeper": {ks.Sample(), ks.Sample(), wkey}}
						t0 := cl.Now()
						r.attempted++
						v, err := cl.InvokeDAG("sleeper-dag", args).Wait()
						switch {
						case err != nil:
							r.fail(err)
						case v != wkey:
							r.wrongf("autoscale-spike: result %v, want %q", v, wkey)
						default:
							r.lat = append(r.lat, cl.Now()-t0)
						}
					}
				})
				r.simLoad = loadFor
				endLoad()
				// The scale-up is checked here, before the drain's scale-down
				// can take the new VMs away again.
				if vms := vmCount(c); div == 1 && vms <= spikeVMs && r.wrong == "" {
					r.wrong = fmt.Sprintf("autoscale-spike: %d VMs at end of load, want > %d (no scale-up)", vms, spikeVMs)
				}
				r.endOfLoad()
				defer sp.begin("drain")()
				c.Run(func(cl *cb.Client) { cl.Sleep(spikeDrain / time.Duration(div)) })
			}, nil
		},
	}
}

// ---- causal-rw ----

const (
	causalClients   = 8
	causalPerClient = 750
	causalUsers     = 300
)

// cycle returns n user ids made of whole seeded permutations of the users
// (the last one cut short), so every user appears n/users times, give or
// take one, whatever the seed.
func cycle(rng *rand.Rand, n int) []int {
	out := make([]int, 0, n+causalUsers)
	for len(out) < n {
		out = append(out, rng.Perm(causalUsers)...)
	}
	return out[:n]
}

func causalRW() workload {
	rt := gen.DefaultRetwis()
	rt.Users, rt.Tweets = causalUsers, 1200
	return workload{
		name: "causal-rw",
		loop: fmt.Sprintf("closed loop, %d clients x %d requests", causalClients, causalPerClient),
		why:  "Retwis under distributed session causal consistency: causal capsules, vector-clock merges, dependency fetches, snapshots and write-back load the same cache, lattice and Anna layers differently from LWW reads",
		config: func(seed int64) cb.Config {
			cfg := cb.DefaultConfig()
			cfg.Seed = seed
			cfg.Mode = cb.Causal
			cfg.VMs, cfg.ThreadsPerVM, cfg.AnnaNodes = 5, 2, 2
			return cfg
		},
		prepare: func(c *cb.Cluster, seed int64, div int, sp *spanLog) (func(*loadResult), error) {
			end := sp.begin("cluster.register")
			err := rt.Register(c)
			end()
			if err != nil {
				return nil, err
			}
			end = sp.begin("workload.preload")
			rng := rand.New(rand.NewSource(seed))
			g := rt.Generate(rng)
			rt.Preload(c, g)
			end()
			end = sp.begin("workload.warmup")
			settle(c)
			end()

			// The paper's mix, 10% rt-post (every other one a reply) and 90%
			// rt-timeline, but stratified: posters and readers are drawn as
			// whole permutations of the users, so the fan-out work of a run
			// is the same for every seed and only its order changes. Drawn
			// independently, a few posts by much-followed users moved
			// allocs_per_req by 10% from seed to seed.
			perClient := max(causalPerClient/div, 10)
			posts := perClient / 10
			posters := cycle(rng, causalClients*posts)
			readers := cycle(rng, causalClients*(perClient-posts))

			return func(r *loadResult) {
				defer sp.begin("load")()
				start := c.Now()
				c.RunN(causalClients, func(i int, cl *cb.Client) {
					cl.Timeout = time.Minute
					crng := rand.New(rand.NewSource(seed*1000 + 100 + int64(i)))
					isPost := make([]bool, perClient)
					for _, at := range crng.Perm(perClient)[:posts] {
						isPost[at] = true
					}
					myPosters := posters[i*posts:]
					myReaders := readers[i*(perClient-posts):]
					for _, post := range isPost {
						t0 := cl.Now()
						r.attempted++
						if post {
							reply := ""
							if len(myPosters)%2 == 0 {
								reply = g.PostIDs[crng.Intn(len(g.PostIDs))]
							}
							id, err := cb.As[string](cl.Invoke("rt-post", []any{myPosters[0], fmt.Sprintf("live tweet at %v", t0), reply}))
							myPosters = myPosters[1:]
							if err != nil {
								r.fail(err)
								continue
							}
							g.PostIDs = append(g.PostIDs, id)
						} else {
							res, err := cb.As[gen.TimelineResult](cl.Invoke("rt-timeline", []any{myReaders[0]}))
							myReaders = myReaders[1:]
							if err != nil {
								r.fail(err)
								continue
							}
							if res.Anomalies > 0 {
								r.wrongf("causal-rw: timeline with %d causal anomalies", res.Anomalies)
								continue
							}
						}
						r.lat = append(r.lat, cl.Now()-t0)
					}
				})
				r.simLoad = c.Now() - start
			}, nil
		},
	}
}
