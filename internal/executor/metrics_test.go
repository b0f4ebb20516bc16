package executor

import (
	"strconv"
	"testing"
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/cache"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// TestMetricsSnapshotWindows scripts invocations of a function that
// computes for a given time around four snapshots of one thread's
// metrics window. Each invocation is busy for invokeOverhead plus its
// compute, so a window's utilization is its busy time over its length,
// its average latency that busy time over its invocations, and every
// snapshot starts the next window empty. An invocation that spans a
// snapshot counts whole in the window it finishes in, which can make a
// window busier than it is long: utilization is capped at 1.
func TestMetricsSnapshotWindows(t *testing.T) {
	k := vtime.NewKernel(1)
	defer k.Stop()
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(100 * time.Microsecond)})
	kv := anna.NewKVS(k, net, anna.DefaultConfig())
	cacheEP := net.AddNode("cache-vm0")
	ch := cache.New(k, cacheEP, kv.NewClient(cacheEP, 0), "vm0", cache.DefaultConfig(core.LWW))
	ch.Start()
	reg := NewRegistry()
	reg.Register("compute", func(c *Ctx, args []any) (any, error) {
		c.Compute(time.Duration(args[0].(float64) * float64(time.Millisecond)))
		return nil, nil
	})
	ep := net.AddNode("exec-vm0-0")
	th := NewThread(k, ep, "vm0", Deps{Cache: ch, Anna: kv.NewClient(ep, 0), Registry: reg})
	th.Start()
	client := net.AddNode("client")

	type want struct {
		elapsed, busy time.Duration
		n, completed  int64
	}
	check := func(name string, got core.ExecutorMetrics, w want) {
		t.Helper()
		util := min(float64(w.busy)/float64(w.elapsed), 1)
		avg := 0.0
		if w.n > 0 {
			avg = (w.busy / time.Duration(w.n)).Seconds()
		}
		if got.Utilization != util || got.AvgLatencyS != avg || got.Completed != w.completed {
			t.Errorf("%s: utilization %v, average latency %vs, completed %d; want %v, %vs, %d",
				name, got.Utilization, got.AvgLatencyS, got.Completed, util, avg, w.completed)
		}
		if got.ReportedAtS != k.Now().Seconds() || got.Thread != th.ID() || got.VM != "vm0" {
			t.Errorf("%s: reported at %vs by %s on %s, want %vs by %s on vm0", name, got.ReportedAtS, got.Thread, got.VM, k.Now().Seconds(), th.ID())
		}
	}
	var seq int
	send := func(ms float64) {
		seq++
		args := []core.Arg{{Val: codec.MustEncode(ms)}}
		client.Send(th.ID(), &core.InvokeRequest{ReqID: "r" + strconv.Itoa(seq), Function: "compute", Args: args, RespondTo: client.ID()}, 128)
	}
	await := func() {
		for {
			if res, ok := client.Recv().Payload.(*core.Result); ok {
				if !res.OK() {
					t.Fatal(res.Err)
				}
				return
			}
		}
	}
	// sleepUntil sleeps the client until offset d from the window's start.
	var start vtime.Time
	sleepUntil := func(d time.Duration) { k.Sleep(start.Add(d).Sub(k.Now())) }

	k.Run("client", func() {
		// Two invocations of 10 ms and 30 ms in a 100 ms window.
		send(10)
		await()
		send(30)
		await()
		sleepUntil(100 * time.Millisecond)
		check("two invocations", th.MetricsSnapshot(), want{100 * time.Millisecond, 2*invokeOverhead + 40*time.Millisecond, 2, 2})

		// An idle window reports nothing but the running total.
		start = k.Now()
		sleepUntil(50 * time.Millisecond)
		check("idle", th.MetricsSnapshot(), want{50 * time.Millisecond, 0, 0, 2})

		// A 100 ms invocation across a snapshot: nothing at the snapshot
		// 50 ms in, all of it in the 60.8 ms window it finishes in.
		start = k.Now()
		send(100)
		sleepUntil(50 * time.Millisecond)
		check("mid-invocation", th.MetricsSnapshot(), want{50 * time.Millisecond, 0, 0, 2})
		start = k.Now()
		await()
		sleepUntil(60*time.Millisecond + invokeOverhead)
		check("finished across", th.MetricsSnapshot(), want{60*time.Millisecond + invokeOverhead, invokeOverhead + 100*time.Millisecond, 1, 3})
	})
}
