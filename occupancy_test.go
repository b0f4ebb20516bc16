package cloudburst

import (
	"fmt"
	"math"
	"testing"
	"time"

	"cloudburst/internal/trace"
)

// shape is a closed loop's cluster and load: vms VMs of threads executor
// threads each, behind schedulers schedulers, driven by clients
// closed-loop clients.
type shape struct{ vms, threads, schedulers, clients int }

// closedLoop runs sh's clients closed-loop on sh's cluster for warm+window
// of virtual time, each invoking "work" with the duration work(client,
// request) picks, which the function spends in Compute. It returns the
// requests that completed inside the window, the sum of their latencies
// (invoke to result, as the client sees it), and the cluster's span
// collector.
func closedLoop(t *testing.T, seed int64, sh shape, warm, window time.Duration, work func(c, n int) time.Duration) (int, time.Duration, *trace.Collector) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.VMs = sh.vms
	cfg.ThreadsPerVM = sh.threads
	cfg.Schedulers = sh.schedulers
	cfg.Trace = trace.NewRing(1 << 14)
	c := testCluster(t, cfg)
	if err := c.RegisterFunction("work", func(ctx *Ctx, args []any) (any, error) {
		ctx.Compute(time.Duration(args[0].(int)))
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	from, to := 3*time.Second+warm, 3*time.Second+warm+window
	done, latency := 0, time.Duration(0)
	c.RunN(sh.clients, func(i int, cl *Client) {
		cl.Sleep(3 * time.Second) // the scheduler's view fills
		for n := 0; cl.Now() < to; n++ {
			start := cl.Now()
			if _, err := cl.Invoke("work", []any{int(work(i, n))}).Wait(); err != nil {
				t.Errorf("client %d request %d: %v", i, n, err)
				return
			}
			if now := cl.Now(); now > from && now <= to {
				done++
				latency += now - start
			}
		}
	})
	return done, latency, cfg.Trace
}

// TestVMThroughputSaturatesAtThreadsOverD holds executor occupancy to its
// closed form: with Compute(d) as a function's only work and three
// closed-loop clients per thread, every thread of the one VM runs
// invocations back to back, each taking d plus the executor's fixed
// per-invocation overhead (800 µs), so the VM completes
// threads ÷ (d + 800 µs) requests a second. Over seeds 1 to 8 each case
// read one rate at every seed: +0.26% off the closed form at 4 threads and
// 20 ms, −0.01% at 2 threads and 5 ms. A saturated thread's schedule draws
// nothing, and the 5 s window cuts each thread's run of completions within
// one, 0.4% at most here. The band is 1%.
func TestVMThroughputSaturatesAtThreadsOverD(t *testing.T) {
	const (
		overhead = 800 * time.Microsecond
		window   = 5 * time.Second
	)
	for _, c := range []struct {
		threads int
		d       time.Duration
	}{{4, 20 * time.Millisecond}, {2, 5 * time.Millisecond}} {
		want := float64(c.threads) / (c.d + overhead).Seconds()
		for _, seed := range []int64{1, 2, 3, 4, 5} {
			done, _, _ := closedLoop(t, seed, shape{1, c.threads, 1, 3 * c.threads}, time.Second, window, func(int, int) time.Duration { return c.d })
			got := float64(done) / window.Seconds()
			if dev := got/want - 1; math.Abs(dev) > 0.01 {
				t.Errorf("%d threads, d = %v, seed %d: %.1f requests/s, want threads/(d+overhead) = %.1f within 1%% (off %+.2f%%)",
					c.threads, c.d, seed, got, want, 100*dev)
			}
		}
	}
}

// mixedWork gives every third request 30 ms of compute and the rest 1 ms,
// so a thread's requests differ in length by 30×.
func mixedWork(c, n int) time.Duration {
	if (c+n)%3 == 0 {
		return 30 * time.Millisecond
	}
	return time.Millisecond
}

// TestLittlesLaw holds the closed-loop rig to Little's law. With zero
// think time each client always has exactly one request in the system,
// so the clients equal throughput × mean latency: (done / window) ×
// (latency / done). Only the requests that straddle the window's edges
// make it inexact. Two shapes: four threads under three clients with
// mixedWork, where no request queues, and two threads under six clients
// at d = 5 ms, where every thread is saturated and each request waits
// in an inbox. Over seeds 1 to 3 the product read +0.04% to +0.19% off
// the clients with mixed work and −0.008% saturated. The band is 2%.
//
// The product is latency / window, so the check sees a sample the rig
// loses from both its count and its latency sum, not one lost from the
// count alone: that one TestVMThroughputSaturatesAtThreadsOverD sees.
func TestLittlesLaw(t *testing.T) {
	const window = 5 * time.Second
	fixed := func(int, int) time.Duration { return 5 * time.Millisecond }
	for _, c := range []struct {
		name string
		sh   shape
		work func(c, n int) time.Duration
	}{
		{"idle thread, mixed work", shape{1, 4, 1, 3}, mixedWork},
		{"saturated, d = 5ms", shape{1, 2, 1, 6}, fixed},
	} {
		for _, seed := range []int64{1, 2, 3} {
			done, latency, _ := closedLoop(t, seed, c.sh, time.Second, window, c.work)
			if done == 0 {
				t.Fatalf("%s, seed %d: no request completed", c.name, seed)
			}
			throughput := float64(done) / window.Seconds()
			mean := latency.Seconds() / float64(done)
			got := throughput * mean
			dev := got/float64(c.sh.clients) - 1
			if math.Abs(dev) > 0.02 {
				t.Errorf("%s, seed %d: throughput %.1f/s × mean latency %v = %.3f, want the %d clients within 2%% (off %+.2f%%)",
					c.name, seed, throughput, time.Duration(mean*1e9), got, c.sh.clients, 100*dev)
			}
		}
	}
}

// TestNoInboxWaitWhileAThreadIsIdle: with fewer closed-loop clients than
// threads, some thread is always idle when a request arrives, so no
// invocation waits in a busy thread's inbox (exec/queue) — even when the
// requests mix 1 ms and 30 ms of compute, so the thread assigned to least
// recently is often the one still running a long request. With two
// schedulers, each counting only its own requests, the idle thread must
// also be one the other scheduler is not using: each takes the idle
// threads of its own share of the VMs first. Two clients never fill one
// share of two threads, so no request waits there either; with a
// placement that treated every idle-looking thread alike, 49, 99 and 61
// of about 1,600 invocations waited at seeds 1 to 3.
func TestNoInboxWaitWhileAThreadIsIdle(t *testing.T) {
	for _, c := range []struct {
		name   string
		sh     shape
		window time.Duration
		seeds  []int64
	}{
		{"one scheduler", shape{1, 4, 1, 3}, 2 * time.Second, []int64{1}},
		{"two schedulers", shape{2, 2, 2, 2}, 10 * time.Second, []int64{1, 2, 3}},
	} {
		for _, seed := range c.seeds {
			done, _, col := closedLoop(t, seed, c.sh, 0, c.window, mixedWork)
			if done == 0 {
				t.Fatalf("%s, seed %d: no request completed", c.name, seed)
			}
			var queued time.Duration
			var waits int
			traces := col.Done()
			for _, tr := range traces {
				for _, s := range tr.Spans {
					if s.Name == "exec/queue" && s.End > s.Start {
						queued += s.End.Sub(s.Start)
						waits++
					}
				}
			}
			if len(traces) < done {
				t.Fatalf("%s, seed %d: %d traces kept for %d requests: the ring is too small", c.name, seed, len(traces), done)
			}
			if waits > 0 {
				t.Errorf("%s, seed %d: %d of %d invocations waited in an inbox, %v in all; want none", c.name, seed, waits, len(traces), queued)
			}
		}
	}
}

// TestReferenceFreeChainRunsInPlace holds a chain of k reference-free
// functions, each spending d in Compute, to its closed form. On an idle
// cluster where every thread has every function pinned, each function
// after the first reads only its upstream's result, so the scheduler
// assigns it to its upstream's thread and the thread runs it there, in
// place: the request takes the client's three network legs (to the
// scheduler, to the first function's thread, and the result back) plus
// k·(d + 800 µs), and the only DAGTrigger that crosses the network is the
// scheduler's, one net/exec span. A function that hopped to its thread
// over the network would add a net/exec span and its flight.
func TestReferenceFreeChainRunsInPlace(t *testing.T) {
	const (
		d        = 5 * time.Millisecond
		overhead = 800 * time.Microsecond
		longest  = 4
	)
	cfg := DefaultConfig()
	cfg.Trace = trace.NewRing(1 << 10)
	c := testCluster(t, cfg)
	var fns []string
	for i := range longest {
		fns = append(fns, fmt.Sprintf("step%d", i))
		if err := c.RegisterFunction(fns[i], func(ctx *Ctx, args []any) (any, error) {
			ctx.Compute(d)
			return len(args), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k <= longest; k++ {
		if err := c.RegisterDAG(LinearDAG(fmt.Sprintf("chain%d", k), fns[:k]...), cfg.VMs*cfg.ThreadsPerVM); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(func(cl *Client) {
		cl.Sleep(3 * time.Second) // the scheduler's view fills
		// One request of each chain first: the executors resolve a DAG's
		// topology from Anna on its first trigger.
		for k := 1; k <= longest; k++ {
			if _, err := cl.InvokeDAG(fmt.Sprintf("chain%d", k), nil).Wait(); err != nil {
				t.Errorf("chain%d: %v", k, err)
				return
			}
		}
		for k := 1; k <= longest; k++ {
			for range 5 {
				if _, err := cl.InvokeDAG(fmt.Sprintf("chain%d", k), nil).Wait(); err != nil {
					t.Errorf("chain%d: %v", k, err)
					return
				}
				cl.Sleep(100 * time.Millisecond) // idle again before the next
			}
		}
	})
	// Traces come in finish order, the warm-up's first.
	seen := map[int]int{} // chain length → requests
	for _, tr := range cfg.Trace.Done()[longest:] {
		var legs time.Duration
		var k, hops int
		for _, s := range tr.Spans {
			switch s.Name {
			case "net/sched", "net/result":
				legs += s.End.Sub(s.Start)
			case "net/exec":
				if hops++; hops == 1 { // the scheduler's trigger
					legs += s.End.Sub(s.Start)
				}
			case "exec/invoke":
				k++
			}
		}
		seen[k]++
		root := tr.Root()
		want := legs + time.Duration(k)*(d+overhead)
		if got := root.End.Sub(root.Start); got != want || hops != 1 {
			t.Errorf("%d-function chain %s: %v with %d triggers over the network, want the legs plus k·(d + overhead) = %v with 1",
				k, tr.ReqID, got, hops, want)
		}
	}
	for k := 1; k <= longest; k++ {
		if seen[k] != 5 {
			t.Errorf("%d requests of the %d-function chain traced, want 5", seen[k], k)
		}
	}
}
