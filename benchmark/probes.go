package main

// Layer probes: micro-drivers that build one layer alone, through its
// exported constructors, and time calls into its public functions on the
// host clock. They do not depend on the workload; a traced run prints
// them beside the workload's own per-layer numbers. The README lists the
// internal symbols they touch.

import (
	"fmt"
	"time"

	cb "cloudburst"
	"cloudburst/internal/anna"
	"cloudburst/internal/cache"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/trace"
	"cloudburst/internal/vtime"
)

// probes collects the probe results: metric name -> value, the unit being
// in the name (ns per call, us per simulated second, ms per close).
type probes struct {
	dur time.Duration // how long each probe keeps calling
	out map[string]float64
}

// nsPerOp calls batch, which performs n operations, until p.dur has
// passed, and returns the host nanoseconds per operation.
func (p *probes) nsPerOp(n int, batch func()) float64 {
	start, ops := time.Now(), 0
	for time.Since(start) < p.dur {
		batch()
		ops += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// repeat returns a batch that calls op n times.
func repeat(n int, op func(i int)) (int, func()) {
	return n, func() {
		for i := 0; i < n; i++ {
			op(i)
		}
	}
}

var probeLink = simnet.Link{Latency: simnet.Constant(200 * time.Microsecond)}

// runProbes runs every probe, each for 500 ms divided by div.
func runProbes(div int) map[string]float64 {
	p := &probes{dur: 500 * time.Millisecond / time.Duration(div), out: make(map[string]float64)}
	p.probeVtime()
	p.probeSimnet()
	p.probeCodec()
	p.probeLattice()
	p.probeAnna(1_000, "1k")
	p.probeAnna(50_000, "50k")
	p.probeAnnaEvict()
	p.probeCache(core.LWW, "lww")
	p.probeCache(core.DSC, "dsc")
	p.probeScheduler(8, "24")
	p.probeScheduler(80, "240")
	p.probeTrace()
	p.out["cluster.close_ms_8vm"] = probeClose(8)
	p.out["cluster.close_ms_40vm"] = probeClose(40)
	return p.out
}

func (p *probes) probeVtime() {
	k := vtime.NewKernel(1)
	defer k.Stop()
	k.Run("probe", func() {
		p.out["vtime.sleep_ns"] = p.nsPerOp(repeat(1000, func(int) { k.Sleep(time.Microsecond) }))

		ping, pong := vtime.NewChan[int](k, 0), vtime.NewChan[int](k, 0)
		k.Go("echo", func() {
			for v, ok := ping.Recv(); ok; v, ok = ping.Recv() {
				pong.Send(v)
			}
		})
		// One round trip is two hand-offs of the kernel's token.
		p.out["vtime.handoff_ns"] = p.nsPerOp(repeat(1000, func(i int) { ping.Send(i); pong.Recv() })) / 2
		ping.Close()

		wg := vtime.NewWaitGroup(k)
		p.out["vtime.spawn_ns"] = p.nsPerOp(1000, func() {
			for i := 0; i < 1000; i++ {
				wg.Add(1)
				k.Go("child", wg.Done)
			}
			wg.Wait()
		})
	})
}

func (p *probes) probeSimnet() {
	k := vtime.NewKernel(1)
	defer k.Stop()
	net := simnet.New(k, probeLink)
	a, sink, server := net.AddNode("a"), net.AddNode("sink"), net.AddNode("server")
	k.Run("probe", func() {
		k.Go("sink", func() {
			for {
				sink.Recv()
			}
		})
		k.Go("server", func() {
			server.Serve(func(req *simnet.Request) (any, int) { return req.Body, 64 })
		})
		p.out["simnet.send_ns"] = p.nsPerOp(1000, func() {
			for i := 0; i < 1000; i++ {
				a.Send(sink.ID(), i, 64)
			}
			k.Sleep(time.Millisecond) // let the batch arrive and be received
		})
		p.out["simnet.rpc_ns"] = p.nsPerOp(repeat(500, func(i int) { a.Call(server.ID(), i, 64, 0) }))
	})
}

func (p *probes) probeCodec() {
	// ExecutorMetrics is the most frequent registered struct on the wire
	// (requests themselves cross the simulated network as Go values).
	m := core.ExecutorMetrics{Thread: "vm3/t1", VM: "vm3", Utilization: 0.4, Pinned: []string{"f", "g", "h"}, Completed: 12345, AvgLatencyS: 0.002, ReportedAtS: 17}
	p.out["codec.struct_rt_ns"] = p.nsPerOp(repeat(1000, func(int) { codec.MustDecode(codec.MustEncode(m)) }))
	payload := make([]byte, 64<<10)
	p.out["codec.payload_rt_ns_64k"] = p.nsPerOp(repeat(100, func(int) { codec.MustDecode(codec.MustEncode(payload)) }))
}

func (p *probes) probeLattice() {
	payload := []byte("payload!")
	p.out["lattice.lww_merge_ns"] = p.nsPerOp(repeat(1000, func(i int) {
		cur := lattice.NewLWW(lattice.Timestamp{Clock: int64(i)}, payload)
		cur.Merge(lattice.NewLWW(lattice.Timestamp{Clock: int64(i) + 1}, payload))
	}))
	deps := map[string]lattice.VectorClock{"dep": {"w1": 3}}
	p.out["lattice.causal_merge_ns"] = p.nsPerOp(repeat(1000, func(i int) {
		n := uint64(i)
		cur := lattice.NewCausal(lattice.VectorClock{"w1": n + 1, "w2": n + 1}, deps, payload)
		cur.Merge(lattice.NewCausal(lattice.VectorClock{"w1": n + 2, "w2": n + 1}, deps, payload))
	}))
}

// annaRig is one storage node holding n preloaded keys, and a client.
func annaRig(n int, node anna.NodeConfig) (*vtime.Kernel, *anna.Client, []string) {
	k := vtime.NewKernel(1)
	net := simnet.New(k, probeLink)
	cfg := anna.DefaultConfig()
	cfg.Nodes, cfg.Node = 1, node
	kv := anna.NewKVS(k, net, cfg)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("probe-%07d", i)
		kv.Preload(keys[i], lattice.NewLWW(lattice.Timestamp{Clock: 1}, make([]byte, 64)))
	}
	return k, kv.NewClient(net.AddNode("probe-client"), 0), keys
}

func (p *probes) probeAnna(n int, suffix string) {
	k, cl, keys := annaRig(n, anna.DefaultNodeConfig())
	defer k.Stop()
	// All background ticks of an idle node: host time per simulated second.
	p.out["anna.idle_sim_s_us_"+suffix] = p.nsPerOp(1, func() {
		k.Run("idle", func() { k.Sleep(time.Second) })
	}) / 1e3
	k.Run("probe", func() {
		p.out["anna.get_ns_"+suffix] = p.nsPerOp(repeat(200, func(i int) { cl.Get(keys[i*31%n]) }))
		if n < 50_000 {
			return
		}
		val := lattice.NewLWW(lattice.Timestamp{Clock: 2}, make([]byte, 64))
		p.out["anna.put_ns_"+suffix] = p.nsPerOp(repeat(200, func(i int) { cl.Put(keys[i*31%n], val) }))
		p.out["anna.multiget10_ns_"+suffix] = p.nsPerOp(repeat(50, func(i int) {
			at := i * 310 % (n - 10)
			cl.MultiGet(keys[at : at+10])
		}))
	})
}

// probeAnnaEvict times puts on a node whose memory tier holds half its
// keys, so every put demotes another key to the disk tier.
func (p *probes) probeAnnaEvict() {
	const n, size = 2000, 1024
	node := anna.DefaultNodeConfig()
	node.MemCapacity = n * size / 2
	k, cl, keys := annaRig(n, node)
	defer k.Stop()
	val := lattice.NewLWW(lattice.Timestamp{Clock: 2}, make([]byte, size))
	k.Run("probe", func() {
		p.out["anna.evict_put_ns"] = p.nsPerOp(repeat(200, func(i int) { cl.Put(keys[i*31%n], val) }))
	})
}

func (p *probes) probeCache(mode core.Mode, suffix string) {
	k := vtime.NewKernel(1)
	defer k.Stop()
	net := simnet.New(k, probeLink)
	cfg := anna.DefaultConfig()
	cfg.Nodes = 1
	kv := anna.NewKVS(k, net, cfg)
	ep := net.AddNode("cache-probe")
	c := cache.New(k, ep, kv.NewClient(ep, 0), "probe", cache.DefaultConfig(mode))
	c.Start()
	payload := []byte("payload!")
	if mode.Causal() {
		kv.Preload("key", lattice.NewCausal(lattice.VectorClock{"preload": 1}, nil, payload))
	} else {
		kv.Preload("key", lattice.NewLWW(lattice.Timestamp{Clock: 1}, payload))
	}
	k.Run("probe", func() {
		read := func(int) { c.Read("probe-req", "key", core.NewSessionMetaP()) }
		read(0)
		p.out["cache.hit_ns_"+suffix] = p.nsPerOp(repeat(1000, read))
		if mode == core.LWW {
			p.out["cache.miss_ns_lww"] = p.nsPerOp(repeat(200, func(i int) { c.Evict("key"); read(i) }))
		}
		// Write-back to Anna is asynchronous; draining it every batch keeps
		// the queue bounded and counts its cost.
		p.out["cache.write_ns_"+suffix] = p.nsPerOp(200, func() {
			for i := 0; i < 200; i++ {
				c.Write("probe-req", "key", payload, core.NewSessionMetaP(), "w1")
			}
			c.FlushWrites()
		})
	})
}

// probeScheduler times a no-op Invoke through a whole cluster of the given
// size (3 executor threads per VM): what the scheduler's choice among
// that many threads costs on top of the fixed request path.
func (p *probes) probeScheduler(vms int, suffix string) {
	cfg := cb.DefaultConfig()
	cfg.VMs = vms
	c := cb.NewCluster(cfg)
	defer c.Close()
	if err := c.RegisterFunction("noop", func(*cb.Ctx, []any) (any, error) { return nil, nil }); err != nil {
		panic(fmt.Sprintf("scheduler probe: %v", err))
	}
	settle(c)
	c.Run(func(cl *cb.Client) {
		p.out["scheduler.invoke_ns_"+suffix] = p.nsPerOp(repeat(100, func(int) { cl.Invoke("noop", nil).Wait() }))
	})
}

func (p *probes) probeTrace() {
	const spansPerTrace = 5
	p.out["trace.span_ns"] = p.nsPerOp(1000*spansPerTrace, func() {
		col := trace.New() // a fresh collector per batch bounds the kept summaries
		for i := 0; i < 1000; i++ {
			at := vtime.Time(i)
			root := col.Root("req", "invoke", at)
			for s := 1; s < spansPerTrace; s++ {
				root.Start("span", trace.Category(s), at).End(at + 1)
			}
			col.Finish("req", at+2)
		}
	})
}

// probeClose boots a cluster of the given size, lets its processes start,
// and times Close (Kernel.Stop's per-process teardown). Median of three.
func probeClose(vms int) float64 {
	var samples []float64
	for i := 0; i < 3; i++ {
		cfg := cb.DefaultConfig()
		cfg.VMs = vms
		c := cb.NewCluster(cfg)
		settle(c)
		start := time.Now()
		c.Close()
		samples = append(samples, ms(time.Since(start)))
	}
	return median(samples)
}
