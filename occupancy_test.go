package cloudburst

import (
	"math"
	"testing"
	"time"

	"cloudburst/internal/trace"
)

// closedLoop runs clients closed-loop clients on a one-VM cluster of
// threads executor threads for warm+window of virtual time, each invoking
// "work" with the duration work(client, request) picks, which the function
// spends in Compute. It returns the requests that completed inside the
// window, and the cluster's span collector.
func closedLoop(t *testing.T, seed int64, threads, clients int, warm, window time.Duration, work func(c, n int) time.Duration) (int, *trace.Collector) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.VMs = 1
	cfg.ThreadsPerVM = threads
	cfg.Trace = trace.NewRing(1 << 14)
	c := testCluster(t, cfg)
	if err := c.RegisterFunction("work", func(ctx *Ctx, args []any) (any, error) {
		ctx.Compute(time.Duration(args[0].(int)))
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	from, to := 3*time.Second+warm, 3*time.Second+warm+window
	done := 0
	c.RunN(clients, func(i int, cl *Client) {
		cl.Sleep(3 * time.Second) // the scheduler's view fills
		for n := 0; cl.Now() < to; n++ {
			if _, err := cl.Invoke("work", []any{int(work(i, n))}).Wait(); err != nil {
				t.Errorf("client %d request %d: %v", i, n, err)
				return
			}
			if now := cl.Now(); now > from && now <= to {
				done++
			}
		}
	})
	return done, cfg.Trace
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
			done, _ := closedLoop(t, seed, c.threads, 3*c.threads, time.Second, window, func(int, int) time.Duration { return c.d })
			got := float64(done) / window.Seconds()
			if dev := got/want - 1; math.Abs(dev) > 0.01 {
				t.Errorf("%d threads, d = %v, seed %d: %.1f requests/s, want threads/(d+overhead) = %.1f within 1%% (off %+.2f%%)",
					c.threads, c.d, seed, got, want, 100*dev)
			}
		}
	}
}

// TestNoInboxWaitWhileAThreadIsIdle: with fewer closed-loop clients than
// threads, some thread is always idle when a request arrives, so no
// invocation waits in a busy thread's inbox (exec/queue) — even when the
// requests mix 1 ms and 30 ms of compute, so the thread assigned to least
// recently is often the one still running a long request.
func TestNoInboxWaitWhileAThreadIsIdle(t *testing.T) {
	const threads, clients = 4, 3
	mixed := func(c, n int) time.Duration {
		if (c+n)%3 == 0 {
			return 30 * time.Millisecond
		}
		return time.Millisecond
	}
	done, col := closedLoop(t, 1, threads, clients, 0, 2*time.Second, mixed)
	if done == 0 {
		t.Fatal("no request completed")
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
		t.Fatalf("%d traces kept for %d requests: the ring is too small", len(traces), done)
	}
	if waits > 0 {
		t.Errorf("%d of %d invocations waited in an inbox, %v in all; want none", waits, len(traces), queued)
	}
}
