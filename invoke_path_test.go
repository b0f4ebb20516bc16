package cloudburst

import (
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/executor"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/txn"
)

// TestInvokePathAllocations pins what one request allocates on a warm
// cluster whose arguments all hit the cache: under LWW a bare
// Invoke(...).Wait() and a 3-function linear InvokeDAG(...).Wait(), and
// under DSC a bare Invoke(...).Wait(), client, scheduler, executor and
// cache together. What is left is what outlives the request or crosses
// the network, one allocation per event: the Future with its request, the
// encoded arguments, each function's encoded result, each hop's trigger
// with its input, the scheduler's schedule with its assignments and
// source trigger, and the end's Result, DAGDone and RequestComplete in one
// record. The scheduler's tracking record comes off its free list, and
// each function's Ctx and argument slice are its thread's own, reset for
// every invocation. A DSC invocation's session is its thread's own and its
// snapshot table comes off the cache's free list, and its DAGDone rides the
// completion record, so it costs what LWW's does. A new allocation per
// request fails it; lower the numbers when one goes.
func TestInvokePathAllocations(t *testing.T) {
	warm := func(mode core.Mode) *Cluster {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.VMs = 1 // one cache: after the warm-up every reference hits it
		c := testCluster(t, cfg)
		for name, fn := range map[string]Function{
			"sum": func(_ *Ctx, args []any) (any, error) { return args[0].(int) + args[1].(int), nil },
			"inc": func(_ *Ctx, args []any) (any, error) { return args[0].(int) + 1, nil },
			"dbl": func(_ *Ctx, args []any) (any, error) { return 2 * args[0].(int), nil },
		} {
			if err := c.RegisterFunction(name, fn); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.RegisterDAG(LinearDAG("chain", "sum", "inc", "dbl"), 3); err != nil {
			t.Fatal(err)
		}
		c.Run(func(cl *Client) {
			if err := cl.Put("a", 20); err != nil {
				t.Fatal(err)
			}
			if err := cl.Put("b", 22); err != nil {
				t.Fatal(err)
			}
			cl.Sleep(3 * time.Second) // metrics publish; the view warms
		})
		return c
	}
	lww, dsc := warm(LWW), warm(Causal)
	refs := []any{Ref("a"), Ref("b")}
	dagArgs := map[string][]any{"sum": refs}

	cases := []struct {
		name string
		c    *Cluster
		want float64 // measured; raise it only for an allocation that outlives the request
		call func(cl *Client) *Future
		out  int
	}{
		{"invoke", lww, 5.38, func(cl *Client) *Future { return cl.Invoke("sum", refs) }, 42},
		{"dag", lww, 11.38, func(cl *Client) *Future { return cl.InvokeDAG("chain", dagArgs) }, 86},
		{"dsc-invoke", dsc, 5.38, func(cl *Client) *Future { return cl.Invoke("sum", refs) }, 42},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			run := func() {
				tc.c.Run(func(cl *Client) {
					for i := 0; i < calls; i++ {
						out, err := tc.call(cl).Wait()
						if err != nil || out != tc.out {
							t.Fatalf("result %v, %v; want %d", out, err, tc.out)
						}
					}
				})
			}
			calls = 50
			run() // warm the caches, the decode cache, the kernel's processes and the pools
			// The difference between 100 and 50 requests per Run is 50
			// requests' cost, without what one Run and its client cost.
			base := testing.AllocsPerRun(5, run)
			calls = 100
			got := (testing.AllocsPerRun(5, run) - base) / 50
			// The fractions are the cluster's background ticks during the
			// requests' virtual time; half an allocation of slack absorbs
			// a pooled buffer a collection emptied, not one more per request.
			t.Logf("%s: %.2f allocations per request", tc.name, got)
			if got > tc.want+0.5 {
				t.Fatalf("%s: %.2f allocations per request, want at most %.2f", tc.name, got, tc.want)
			}
		})
	}
}

// TestNextReqAllocatesOnce: naming a request is one exact-size
// allocation, its result key, whose prefix is its id. The ids here are
// past 99, where strconv's table of small numbers ends.
func TestNextReqAllocatesOnce(t *testing.T) {
	c := testCluster(t, DefaultConfig())
	c.Run(func(cl *Client) {
		cl.seq = 1233
		id, key := cl.nextReq()
		if want := string(cl.ep.ID()) + "-r1234"; id != want || key != want+resultSuffix {
			t.Fatalf("nextReq = %q, %q; want %q, %q", id, key, want, want+resultSuffix)
		}
		if unsafe.StringData(id) != unsafe.StringData(key) {
			t.Errorf("the id %q is not the key's prefix", id)
		}
		if n := testing.AllocsPerRun(100, func() { cl.nextReq() }); n != 1 {
			t.Errorf("nextReq allocates %.0f times, want 1", n)
		}
	})
}

// TestCompletionReachesForwardingShard: a scheduler forwards a bare
// invocation's request unchanged, and the executor addresses its
// RequestComplete to the message's sender. Across two scheduler shards,
// every request, bare or DAG, and one the client re-routes after its
// first shard went down, is untracked by the shard that forwarded it:
// at quiescence, a second after the last result and long before the
// §4.5 timer could act, no shard holds a record and none re-executed.
func TestCompletionReachesForwardingShard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Schedulers = 2
	c := testCluster(t, cfg)
	registerArith(t, c)
	if err := c.RegisterDAG(LinearDAG("sq-inc", "square", "increment"), 2); err != nil {
		t.Fatal(err)
	}
	scheds := c.in.Schedulers()
	quiescent := func(when string) {
		t.Helper()
		for _, s := range scheds {
			if s.Inflight() != 0 || s.Reexecutions() != 0 {
				t.Fatalf("%s: shard %s holds %d requests after %d re-executions; want 0 and 0",
					when, s.ID(), s.Inflight(), s.Reexecutions())
			}
		}
	}
	c.Run(func(cl *Client) {
		cl.Sleep(3 * time.Second)
		bare := map[simnet.NodeID]int{} // bare invocations per first-ranked shard
		var futs []*Future
		var want []int
		for i := 0; i < 24; i++ {
			var f *Future
			if i%3 == 2 {
				f = cl.InvokeDAG("sq-inc", map[string][]any{"square": {i}})
				want = append(want, i*i+1)
			} else {
				f = cl.Invoke("square", []any{i})
				want = append(want, i*i)
				bare[c.in.RouteScheduler(f.reqID, 0)]++
			}
			futs = append(futs, f)
		}
		for i, f := range futs {
			if out, err := As[int](f); err != nil || out != want[i] {
				t.Fatalf("request %d = %v, %v; want %d", i, out, err, want[i])
			}
		}
		if len(bare) != 2 {
			t.Fatalf("bare invocations reached %d shards, want both: %v", len(bare), bare)
		}
		cl.Sleep(time.Second)
		quiescent("after 24 requests")

		// The next request's first shard is down: the client re-routes the
		// request it allocated with its future to the second-ranked shard.
		next := string(cl.ep.ID()) + "-r" + strconv.FormatInt(cl.seq+1, 10)
		primary := c.in.RouteScheduler(next, 0)
		c.in.Net.SetDown(primary, true)
		cl.Timeout = 12 * time.Second
		f := cl.Invoke("square", []any{6})
		if f.reqID != next {
			t.Fatalf("request id %q, want %q", f.reqID, next)
		}
		if out, err := As[int](f); err != nil || out != 36 || !f.rerouted {
			t.Fatalf("re-routed request = %v, %v (re-routed %v); want 36 via the second shard", out, err, f.rerouted)
		}
		cl.Sleep(time.Second)
		quiescent("after the re-routed request")
		c.in.Net.SetDown(primary, false)
	})
}

// TestInvocationIDs: an invocation's id reads thread#seq, where seq
// counts every invocation the thread ran whether or not earlier ones read
// their ids, and a traced transactional write names its invocation
// through the write id its payload is tagged with and the commit record's
// transaction id, though the function never asks for its id.
func TestInvocationIDs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Transactional
	cfg.VMs, cfg.ThreadsPerVM = 1, 1 // every invocation on one thread
	rec := &writeRecorder{}
	cfg.Tracer = rec
	c := NewCluster(cfg)
	t.Cleanup(c.Close)
	for name, fn := range map[string]Function{
		"quiet":  func(*Ctx, []any) (any, error) { return 0, nil },
		"whoami": func(ctx *Ctx, _ []any) (any, error) { return ctx.ID(), nil },
		"write": func(ctx *Ctx, _ []any) (any, error) {
			if err := ctx.Put("x", 1); err != nil {
				return nil, err
			}
			return 0, ctx.Put("y", 2)
		},
	} {
		if err := c.RegisterFunction(name, fn); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(func(cl *Client) {
		cl.Sleep(3 * time.Second)
		for i := 0; i < 2; i++ {
			if _, err := cl.Invoke("quiet", nil).Wait(); err != nil {
				t.Fatal(err)
			}
		}
		id, err := As[string](cl.Invoke("whoami", nil))
		if err != nil {
			t.Fatal(err)
		}
		thread, ok := core.SplitInvocationID(id)
		if !ok || id != core.MakeInvocationID(thread, 3) {
			t.Fatalf("third invocation's id %q, want thread#3", id)
		}
		f := cl.Invoke("write", nil, WithTxn())
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		inv := core.MakeInvocationID(thread, 4)
		var got []string
		for _, ev := range rec.writes {
			got = append(got, ev.Key+"="+ev.WriteID)
		}
		if want := []string{"x=" + inv + "/w1", "y=" + inv + "/w2"}; strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("traced writes %v, want %v", got, want)
		}
		lat, found, err := cl.anna.Get(core.TxnLogKey(f.reqID))
		if err != nil || !found {
			t.Fatalf("commit record: found %v, %v", found, err)
		}
		v, err := codec.Decode(lat.(*lattice.LWW).Value)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := txn.AsRecord(v); err != nil || r.TxnID != inv {
			t.Fatalf("commit record names %q (%v), want %q", r.TxnID, err, inv)
		}
	})
}

// writeRecorder keeps the traced writes.
type writeRecorder struct{ writes []executor.TraceEvent }

func (r *writeRecorder) OnRead(executor.TraceEvent)     {}
func (r *writeRecorder) OnWrite(ev executor.TraceEvent) { r.writes = append(r.writes, ev) }

// TestFutureKey: Future.Key, public API, is the request id followed by
// "-result", with or without WithStoreInKVS, and request ids stay
// distinct across many invocations though each is a prefix of its key.
func TestFutureKey(t *testing.T) {
	c := testCluster(t, DefaultConfig())
	registerArith(t, c)
	c.Run(func(cl *Client) {
		ids := map[string]bool{}
		for i := 0; i < 1000; i++ {
			var f *Future
			if i%2 == 0 {
				f = cl.Invoke("square", []any{i}, WithStoreInKVS())
			} else {
				f = cl.Invoke("square", []any{i})
			}
			want := string(cl.ep.ID()) + "-r" + strconv.Itoa(i+1)
			if f.reqID != want || f.Key != want+"-result" {
				t.Fatalf("request %d: id %q key %q; want %q and %q", i, f.reqID, f.Key, want, want+"-result")
			}
			if ids[f.reqID] {
				t.Fatalf("request id %q issued twice", f.reqID)
			}
			ids[f.reqID] = true
			if i%100 == 0 {
				if out, err := As[int](f); err != nil || out != i*i {
					t.Fatalf("request %d = %v, %v", i, out, err)
				}
			}
		}
	})
}
