package cloudburst

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cloudburst/internal/cluster"
	"cloudburst/internal/core"
	"cloudburst/internal/scheduler"
	"cloudburst/internal/simnet"
)

func testCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c := NewCluster(cfg)
	t.Cleanup(c.Close)
	return c
}

func registerArith(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.RegisterFunction("increment", func(ctx *Ctx, args []any) (any, error) {
		return args[0].(int) + 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterFunction("square", func(ctx *Ctx, args []any) (any, error) {
		return args[0].(int) * args[0].(int), nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c := testCluster(t, DefaultConfig())
	c.Run(func(cl *Client) {
		if err := cl.Put("greeting", "hello"); err != nil {
			t.Fatal(err)
		}
		v, found, err := cl.Get("greeting")
		if err != nil || !found || v.(string) != "hello" {
			t.Fatalf("get = %v %v %v", v, found, err)
		}
		_, found, err = cl.Get("missing")
		if err != nil || found {
			t.Fatalf("missing key: %v %v", found, err)
		}
	})
}

func TestSingleFunctionInvoke(t *testing.T) {
	c := testCluster(t, DefaultConfig())
	registerArith(t, c)
	c.Run(func(cl *Client) {
		out, err := As[int](cl.Invoke("square", []any{7}))
		if err != nil {
			t.Fatal(err)
		}
		if out != 49 {
			t.Fatalf("square(7) = %v", out)
		}
	})
}

func TestInvokeWithKVSReference(t *testing.T) {
	// Figure 2: sq(CloudburstReference('key')) with key=2 returns 4.
	c := testCluster(t, DefaultConfig())
	registerArith(t, c)
	c.Run(func(cl *Client) {
		if err := cl.Put("key", 2); err != nil {
			t.Fatal(err)
		}
		out, err := cl.Invoke("square", []any{Ref("key")}).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if out.(int) != 4 {
			t.Fatalf("square(ref key=2) = %v", out)
		}
	})
}

func TestStoreInKVSFuture(t *testing.T) {
	// Figure 2 lines 11-12: future = sq(3, store_in_kvs=True). The
	// result is persisted under the future's Key and also resolves the
	// future.
	c := testCluster(t, DefaultConfig())
	registerArith(t, c)
	c.Run(func(cl *Client) {
		fut := cl.Invoke("square", []any{3}, WithStoreInKVS())
		out, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if out.(int) != 9 {
			t.Fatalf("future = %v", out)
		}
		// The stored result is independently readable by key.
		v, found, err := cl.Get(fut.Key)
		if err != nil || !found || v.(int) != 9 {
			t.Fatalf("stored result = %v %v %v", v, found, err)
		}
	})
}

func TestBatchAndAll(t *testing.T) {
	c := testCluster(t, DefaultConfig())
	registerArith(t, c)
	c.Run(func(cl *Client) {
		invs := make([]Invocation, 6)
		for i := range invs {
			invs[i] = Invocation{Function: "square", Args: []any{i}}
		}
		vals, err := All(cl.Batch(invs)...)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if v.(int) != i*i {
				t.Fatalf("batch[%d] = %v", i, v)
			}
		}
	})
}

func TestAllWithFailingMember(t *testing.T) {
	c := testCluster(t, DefaultConfig())
	registerArith(t, c)
	if err := c.RegisterFunction("fail", func(ctx *Ctx, args []any) (any, error) {
		return nil, errors.New("member failed")
	}); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) {
		futs := []*Future{
			cl.Invoke("square", []any{2}),
			cl.Invoke("fail", nil),
			cl.Invoke("square", []any{3}),
		}
		vals, err := All(futs...)
		if err == nil || !strings.Contains(err.Error(), "member failed") {
			t.Fatalf("All err = %v", err)
		}
		// The failing member must not strand its siblings' results.
		if vals[0].(int) != 4 || vals[2].(int) != 9 {
			t.Fatalf("sibling results lost: %v", vals)
		}
	})
}

func TestDuplicateAndStaleResultDelivery(t *testing.T) {
	c := testCluster(t, DefaultConfig())
	registerArith(t, c)
	c.Run(func(cl *Client) {
		fut := cl.Invoke("square", []any{4})
		out, err := fut.Wait()
		if err != nil || out.(int) != 16 {
			t.Fatalf("first result = %v, %v", out, err)
		}
		// A duplicate result for the completed request (a re-executed
		// DAG's second sink reply) and a result for a request this
		// client never made must both be dropped silently.
		dup := &core.Result{ReqID: fut.reqID, Err: "late failure notice"}
		stale := &core.Result{ReqID: "nobody-r99", Val: []byte{0x01}}
		cl.ep.Send(cl.ep.ID(), dup, 16)
		cl.ep.Send(cl.ep.ID(), stale, 16)
		cl.Sleep(10 * time.Millisecond)
		// The next invocation pumps the endpoint past both messages.
		out2, err := As[int](cl.Invoke("square", []any{5}))
		if err != nil || out2 != 25 {
			t.Fatalf("invoke after stale delivery = %v, %v", out2, err)
		}
		if v, gerr := fut.Wait(); gerr != nil || v.(int) != 16 {
			t.Fatalf("duplicate overwrote completed future: %v %v", v, gerr)
		}
	})
}

func TestLateFailureAfterStoredSuccess(t *testing.T) {
	// A stored-result future whose success notice has arrived must not
	// be overwritten by a later failure notice for the same request (a
	// re-executed DAG attempt that errored after the first persisted).
	c := testCluster(t, DefaultConfig())
	registerArith(t, c)
	c.Run(func(cl *Client) {
		fut := cl.Invoke("square", []any{8}, WithStoreInKVS())
		// Let the success notice land in the inbox, then enqueue a stale
		// failure notice behind it before anything is drained.
		cl.Sleep(200 * time.Millisecond)
		cl.ep.Send(cl.ep.ID(), &core.Result{ReqID: fut.reqID, Err: "stale retry failure"}, 16)
		cl.Sleep(10 * time.Millisecond)
		out, err := fut.Wait()
		if err != nil || out.(int) != 64 {
			t.Fatalf("stored future = %v, %v (stale failure overwrote success?)", out, err)
		}
	})
}

func TestExpiredFutureFailsImmediately(t *testing.T) {
	// A stored-result future whose deadline has passed must fail without
	// sleeping another poll interval: the deadline is checked before
	// every sleep.
	c := testCluster(t, DefaultConfig())
	c.Run(func(cl *Client) {
		f := &Future{cl: cl, reqID: "expired-r1", Key: "expired-r1-result",
			store: true, notified: true, timeout: time.Nanosecond}
		start := cl.Now()
		if _, err := f.Wait(); !errors.Is(err, ErrTimedOut) {
			t.Fatalf("err = %v, want timeout", err)
		}
		if elapsed := cl.Now() - start; elapsed >= 2*time.Millisecond {
			t.Fatalf("expired future slept a poll interval: %v", elapsed)
		}
	})
}

func TestLinearDAGComposition(t *testing.T) {
	// §6.1.1's square(increment(x)).
	c := testCluster(t, DefaultConfig())
	registerArith(t, c)
	if err := c.RegisterDAG(LinearDAG("pipeline", "increment", "square"), 1); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) {
		out, err := cl.InvokeDAG("pipeline", map[string][]any{"increment": {5}}).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if out.(int) != 36 {
			t.Fatalf("square(increment(5)) = %v, want 36", out)
		}
	})
}

func TestDAGHopsReported(t *testing.T) {
	c := testCluster(t, DefaultConfig())
	registerArith(t, c)
	if err := c.RegisterDAG(LinearDAG("pipe3", "increment", "increment", "square"), 1); err == nil {
		t.Fatal("duplicate function names in DAG must be rejected")
	}
	if err := c.RegisterDAG(LinearDAG("pipe2", "increment", "square"), 1); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) {
		f := cl.InvokeDAG("pipe2", map[string][]any{"increment": {1}}, WithHopCount())
		out, err := f.Wait()
		if err != nil || out.(int) != 4 {
			t.Fatalf("result = %v err = %v", out, err)
		}
		if f.Hops() != 2 {
			t.Fatalf("hops = %d, want 2", f.Hops())
		}
	})
}

// TestDAGArgsForAFunctionItLacksFail: arguments for a function the DAG
// does not have (a misspelled key in InvokeDAG's map) fail the request at
// the scheduler, before any function runs and without tracking it,
// rather than being dropped while the DAG runs without them.
func TestDAGArgsForAFunctionItLacksFail(t *testing.T) {
	c := testCluster(t, DefaultConfig())
	registerArith(t, c)
	if err := c.RegisterDAG(LinearDAG("pipeline", "increment", "square"), 1); err != nil {
		t.Fatal(err)
	}
	sched := c.Internal().Schedulers()[0]
	c.Run(func(cl *Client) {
		_, err := cl.InvokeDAG("pipeline", map[string][]any{"increment": {5}, "sqaure": {2}}).Wait()
		want := `scheduler: DAG "pipeline" has no function "sqaure"`
		if err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %s", err, want)
		}
		if n := sched.Inflight(); n != 0 {
			t.Fatalf("scheduler tracks %d requests after rejecting one", n)
		}
		out, err := cl.InvokeDAG("pipeline", map[string][]any{"increment": {5}}).Wait()
		if err != nil || out.(int) != 36 {
			t.Fatalf("valid request after the rejected one = %v, %v", out, err)
		}
	})
	if runs := sched.Reexecutions(); runs != 0 {
		t.Fatalf("%d re-executions", runs)
	}
}

func TestStatefulFunctionPutGet(t *testing.T) {
	// One VM: all three worker threads share the co-located cache, so
	// the counter's read-modify-write cycles observe each other
	// immediately (cross-VM visibility is eventual under LWW and is
	// tested separately).
	cfg := DefaultConfig()
	cfg.VMs = 1
	c := testCluster(t, cfg)
	if err := c.RegisterFunction("counter", func(ctx *Ctx, args []any) (any, error) {
		v, found, err := ctx.Get("count")
		if err != nil {
			return nil, err
		}
		n := 0
		if found {
			n = v.(int)
		}
		n++
		if err := ctx.Put("count", n); err != nil {
			return nil, err
		}
		return n, nil
	}); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) {
		var last int
		for i := 1; i <= 5; i++ {
			out, err := cl.Invoke("counter", nil).Wait()
			if err != nil {
				t.Fatal(err)
			}
			last = out.(int)
		}
		if last != 5 {
			t.Fatalf("counter after 5 calls = %d", last)
		}
	})
}

func TestDirectMessagingBetweenFunctions(t *testing.T) {
	// Table 1 send/recv: a responder advertises its ID under a
	// well-known key; a pinger sends to it and the responder echoes.
	c := testCluster(t, DefaultConfig())
	if err := c.RegisterFunction("responder", func(ctx *Ctx, args []any) (any, error) {
		if err := ctx.Put("responder-id", ctx.ID()); err != nil {
			return nil, err
		}
		msgs, err := ctx.Recv()
		for deadline := ctx.Now().Add(5 * time.Second); err == nil && len(msgs) == 0 && ctx.Now() < deadline; {
			ctx.Compute(2 * time.Millisecond)
			msgs, err = ctx.Recv()
		}
		if err != nil {
			return nil, err
		}
		if len(msgs) == 0 {
			return nil, errors.New("no ping received")
		}
		return fmt.Sprintf("got:%v", msgs[0]), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterFunction("pinger", func(ctx *Ctx, args []any) (any, error) {
		var target string
		for {
			v, found, err := ctx.Get("responder-id")
			if err != nil {
				return nil, err
			}
			if found {
				target = v.(string)
				break
			}
			ctx.Compute(2 * time.Millisecond)
		}
		return "pinged", ctx.Send(target, "ping!")
	}); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) {
		// The responder's future completes by push while the client is
		// waiting on the pinger — no KVS storage involved.
		futR := cl.Invoke("responder", nil)
		if _, err := cl.Invoke("pinger", nil).Wait(); err != nil {
			t.Fatal(err)
		}
		out, err := As[string](futR)
		if err != nil {
			t.Fatal(err)
		}
		if out != "got:ping!" {
			t.Fatalf("responder result = %v", out)
		}
	})
}

func TestUnknownFunctionAndDAGErrors(t *testing.T) {
	c := testCluster(t, DefaultConfig())
	c.Run(func(cl *Client) {
		if _, err := cl.Invoke("ghost", nil).Wait(); err == nil {
			t.Fatal("call to unregistered function succeeded")
		}
		if _, err := cl.InvokeDAG("ghost-dag", nil).Wait(); err == nil {
			t.Fatal("call to unregistered DAG succeeded")
		}
	})
	if err := c.RegisterDAG(LinearDAG("bad", "nope"), 1); err == nil {
		t.Fatal("DAG over unregistered function accepted")
	}
}

// TestFunctionErrorPropagates: a function's error reaches the client, and
// it ends the request — for a bare Invoke and inside a DAG alike, the
// body runs exactly once, nothing is re-executed (§4.5 is for lost
// requests, not failed ones), and the scheduler stops tracking the
// request right away rather than at DAGTimeout.
func TestFunctionErrorPropagates(t *testing.T) {
	kinds := []struct {
		name   string
		invoke func(cl *Client) *Future
	}{
		{"Invoke", func(cl *Client) *Future { return cl.Invoke("boom", nil) }},
		{"DAG", func(cl *Client) *Future { return cl.InvokeDAG("boom-dag", nil) }},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			c := testCluster(t, DefaultConfig())
			runs := 0
			if err := c.RegisterFunction("boom", func(ctx *Ctx, args []any) (any, error) {
				runs++
				return nil, errors.New("kaboom")
			}); err != nil {
				t.Fatal(err)
			}
			if err := c.RegisterFunction("after", func(ctx *Ctx, args []any) (any, error) {
				return args[0], nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := c.RegisterDAG(LinearDAG("boom-dag", "boom", "after"), 1); err != nil {
				t.Fatal(err)
			}
			sched := c.Internal().Schedulers()[0]
			c.Run(func(cl *Client) {
				cl.Sleep(3 * time.Second)
				_, err := kind.invoke(cl).Wait()
				if err == nil || !strings.Contains(err.Error(), "kaboom") {
					t.Errorf("err = %v", err)
				}
				cl.Sleep(time.Second) // far short of the 8s DAGTimeout
				if n := sched.Inflight(); n != 0 {
					t.Errorf("scheduler still tracks %d requests after the error was delivered", n)
				}
				cl.Sleep(3 * time.Minute) // room for every re-execution §4.5 would issue
			})
			if runs != 1 || sched.Reexecutions() != 0 {
				t.Fatalf("failing function ran %d times with %d re-executions, want 1 and 0", runs, sched.Reexecutions())
			}
		})
	}
}

// TestUnsupportedTypeIsAnError: a value the codec cannot serialize is
// an error at every surface a user value crosses — client writes and
// arguments, in-function writes, and function results, single or DAG —
// never a panic, and the error names the type.
// TestInvokeDAGEncodeErrorIsDeterministic gives two of a DAG's functions
// differently unencodable arguments: InvokeDAG encodes in function-name
// order, so every call fails on the first name's argument with the same
// error, whatever order the caller's map iterates in.
func TestInvokeDAGEncodeErrorIsDeterministic(t *testing.T) {
	c := testCluster(t, DefaultConfig())
	registerArith(t, c)
	if err := c.RegisterDAG(LinearDAG("sq-inc", "square", "increment"), 1); err != nil {
		t.Fatal(err)
	}
	args := map[string][]any{"square": {int32(7)}, "increment": {[]int64{1}}}
	c.Run(func(cl *Client) {
		errs := map[string]int{}
		for i := 0; i < 200; i++ {
			if _, err := cl.InvokeDAG("sq-inc", args).Wait(); err != nil {
				errs[err.Error()]++
			}
		}
		if len(errs) != 1 {
			t.Fatalf("200 calls failed with %d distinct errors, want 1: %v", len(errs), errs)
		}
		for msg, n := range errs {
			if n != 200 || !strings.Contains(msg, "unsupported type []int64") {
				t.Fatalf("%d of 200 calls failed with %q, want all on increment's []int64", n, msg)
			}
		}
	})
}

func TestUnsupportedTypeIsAnError(t *testing.T) {
	type unregistered struct{ N int }
	c := testCluster(t, DefaultConfig())
	registerArith(t, c)
	if err := c.RegisterFunction("bad-put", func(ctx *Ctx, args []any) (any, error) {
		return nil, ctx.Put("k", []int64{1})
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterFunction("bad-result", func(ctx *Ctx, args []any) (any, error) {
		return map[string]any{"nested": unregistered{N: 1}}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDAG(LinearDAG("bad-sink", "increment", "bad-result"), 1); err != nil {
		t.Fatal(err)
	}
	wantErr := func(what string, err error, typ string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "unsupported type "+typ) {
			t.Errorf("%s: err = %v, want an unsupported-type error naming %s", what, err, typ)
		}
	}
	c.Run(func(cl *Client) {
		wantErr("Client.Put", cl.Put("k", int32(7)), "int32")
		_, err := cl.Invoke("square", []any{unregistered{N: 2}}).Wait()
		wantErr("Invoke argument", err, "cloudburst.unregistered")
		_, err = cl.Invoke("bad-put", nil).Wait()
		wantErr("Ctx.Put", err, "[]int64")
		_, err = cl.Invoke("bad-result", nil).Wait()
		wantErr("function result", err, "cloudburst.unregistered")
		_, err = cl.InvokeDAG("bad-sink", map[string][]any{"increment": {1}}).Wait()
		wantErr("DAG sink result", err, "cloudburst.unregistered")
		if _, found, err := cl.Get("k"); err != nil || found {
			t.Errorf("a failed Put left key k behind: found=%v err=%v", found, err)
		}
	})
}

func TestRunNConcurrentClients(t *testing.T) {
	c := testCluster(t, DefaultConfig())
	registerArith(t, c)
	results := make([]int, 8)
	c.RunN(8, func(i int, cl *Client) {
		out, err := As[int](cl.Invoke("square", []any{i}))
		if err != nil {
			t.Errorf("client %d: %v", i, err)
			return
		}
		results[i] = out
	})
	for i, r := range results {
		if r != i*i {
			t.Fatalf("client %d got %d", i, r)
		}
	}
}

func TestCausalModeEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Causal
	c := testCluster(t, cfg)
	if err := c.RegisterFunction("read-both", func(ctx *Ctx, args []any) (any, error) {
		a, _, err := ctx.Get("ka")
		if err != nil {
			return nil, err
		}
		b, _, err := ctx.Get("kb")
		if err != nil {
			return nil, err
		}
		return fmt.Sprintf("%v/%v", a, b), nil
	}); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) {
		cl.Put("ka", "va")
		cl.Put("kb", "vb")
		out, err := cl.Invoke("read-both", nil).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if out.(string) != "va/vb" {
			t.Fatalf("causal read = %v", out)
		}
	})
}

// TestDSCDependencyWithoutSnapshotReadsAnna: under DSC a cache that reads
// a capsule ships each of its dependencies downstream, but it can snapshot
// only a dependency it holds. Here one VM holds A, which depends on B, and
// no longer holds B: a DAG that reads A and then B must read B from Anna
// at a version no older than A's dependency, not ask the cache for a
// snapshot it never took (which failed the request with ErrSnapshotGone).
func TestDSCDependencyWithoutSnapshotReadsAnna(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Causal
	cfg.VMs = 1
	c := testCluster(t, cfg)
	get := func(key string) Function {
		return func(ctx *Ctx, args []any) (any, error) {
			v, _, err := ctx.Get(key)
			if err != nil {
				return nil, err
			}
			return fmt.Sprintf("%v%v", args, v), nil
		}
	}
	for name, fn := range map[string]Function{
		"write-a": func(ctx *Ctx, args []any) (any, error) {
			if _, _, err := ctx.Get("B"); err != nil {
				return nil, err
			}
			return nil, ctx.Put("A", "a")
		},
		"read-a": get("A"),
		"read-b": get("B"),
	} {
		if err := c.RegisterFunction(name, fn); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RegisterDAG(LinearDAG("a-then-b", "read-a", "read-b"), 1); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) {
		cl.Timeout = time.Minute
		if err := cl.Put("B", "b"); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Invoke("write-a", nil).Wait(); err != nil {
			t.Fatal(err)
		}
		vm := c.Internal().VMs()[0]
		if !vm.Cache.Contains("A") || !vm.Cache.Contains("B") {
			t.Fatal("write-a left A or B out of the VM's cache")
		}
		vm.Cache.Evict("B")
		out, err := cl.InvokeDAG("a-then-b", nil).Wait()
		if err != nil || out != "[[]a]b" {
			t.Fatalf("a-then-b = %v, %v; want [[]a]b", out, err)
		}
	})
}

// TestNoSnapshotOutlivesItsRequest: the version snapshots a request pins
// in the caches it read from (Algorithm 1) are released when the request
// ends, whatever its shape — so is the scheduler's tracking record. At
// quiescence nothing per-request is left anywhere.
func TestNoSnapshotOutlivesItsRequest(t *testing.T) {
	kinds := []struct {
		name   string
		invoke func(cl *Client) *Future
	}{
		{"Invoke", func(cl *Client) *Future { return cl.Invoke("read", []any{Ref("k")}) }},
		{"OneNodeDAG", func(cl *Client) *Future {
			return cl.InvokeDAG("read-dag", map[string][]any{"read": {Ref("k")}})
		}},
		{"Chain", func(cl *Client) *Future {
			return cl.InvokeDAG("read-chain", map[string][]any{"read": {Ref("k")}, "reread": {Ref("k")}, "read3": {Ref("k")}})
		}},
	}
	for _, mode := range []Consistency{RepeatableRead, Causal} {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%v/%s", mode, kind.name), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Mode = mode
				cfg.VMs = 3
				c := testCluster(t, cfg)
				first := func(ctx *Ctx, args []any) (any, error) { return args[0], nil }
				for _, fn := range []string{"read", "reread", "read3"} {
					if err := c.RegisterFunction(fn, first); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.RegisterDAG(LinearDAG("read-dag", "read"), 2); err != nil {
					t.Fatal(err)
				}
				if err := c.RegisterDAG(LinearDAG("read-chain", "read", "reread", "read3"), 2); err != nil {
					t.Fatal(err)
				}
				c.Run(func(cl *Client) {
					cl.Sleep(3 * time.Second)
					if err := cl.Put("k", 7); err != nil {
						t.Errorf("put: %v", err)
						return
					}
					for i := 0; i < 30; i++ {
						if out, err := kind.invoke(cl).Wait(); err != nil || out.(int) != 7 {
							t.Errorf("request %d = %v, %v", i, out, err)
							return
						}
					}
					cl.Sleep(5 * time.Second) // settle: eviction and completion notices land
				})
				snapshots := 0
				for _, vm := range c.Internal().VMs() {
					snapshots += vm.Cache.SnapshotCount()
				}
				if snapshots != 0 {
					t.Errorf("%d request snapshot tables left in the caches at quiescence", snapshots)
				}
				for _, s := range c.Internal().Schedulers() {
					if n := s.Inflight(); n != 0 {
						t.Errorf("scheduler %s still tracks %d requests", s.ID(), n)
					}
				}
			})
		}
	}
}

// TestAbandonedAttemptLeavesNoSnapshots: a DAG attempt whose sink dies
// with its VM sends no DAGDone, so the version snapshot the upstream
// function's cache took for it is never evicted by one. With one thread
// per VM and both functions on every thread, the re-execution avoids the
// two threads the attempt used and runs on the third VM, away from that
// cache, so only the cache's age bound frees the table. sink reads a
// reference of its own, to a key no cache holds, so that it is placed by
// a pick of its own, apart from src, rather than run in place on src's
// thread.
func TestAbandonedAttemptLeavesNoSnapshots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Causal
	cfg.VMs = 3
	cfg.ThreadsPerVM = 1
	cfg.DAGTimeout = time.Second
	cfg.StaleAfter = 3 * time.Second
	c := testCluster(t, cfg)
	var srcID, sinkID string
	if err := c.RegisterFunction("src", func(ctx *Ctx, args []any) (any, error) {
		if srcID == "" {
			srcID = ctx.ID()
		}
		return args[0], nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterFunction("sink", func(ctx *Ctx, args []any) (any, error) {
		if sinkID == "" {
			sinkID = ctx.ID()
		}
		ctx.Compute(2 * time.Second)
		return args[1], nil // args[0] is its own reference's value
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDAG(LinearDAG("src-sink", "src", "sink"), 3); err != nil {
		t.Fatal(err)
	}
	vmOf := func(id string) *cluster.VMHandle {
		for _, vm := range c.Internal().VMs() {
			if strings.HasPrefix(id, "exec-"+vm.Name+"-") {
				return vm
			}
		}
		t.Fatalf("no VM runs %q", id)
		return nil
	}
	c.Run(func(cl *Client) {
		cl.Timeout = time.Minute
		cl.Sleep(3 * time.Second)
		if err := cl.Put("k", 7); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		if err := cl.Put("far", 0); err != nil { // in Anna only
			t.Errorf("put: %v", err)
			return
		}
		fut := cl.InvokeDAG("src-sink", map[string][]any{"src": {Ref("k")}, "sink": {Ref("far")}})
		for sinkID == "" {
			cl.Sleep(10 * time.Millisecond)
		}
		src, sink := vmOf(srcID), vmOf(sinkID)
		if src == sink {
			t.Errorf("src and sink both ran on %s; the test needs them apart", src.Name)
			return
		}
		if n := src.Cache.SnapshotCount(); n != 1 {
			t.Errorf("%s holds %d snapshot tables while the request runs, want 1", src.Name, n)
		}
		c.Internal().KillVM(sink.Name)
		if out, err := fut.Wait(); err != nil || out.(int) != 7 {
			t.Errorf("re-executed request = %v, %v", out, err)
		}
		// Younger than the bound, the table stays: the sweep must not
		// drop a request that may still be running.
		cl.Sleep(5 * time.Second)
		if n := src.Cache.SnapshotCount(); n != 1 {
			t.Errorf("%s holds %d snapshot tables at %v, younger than the age bound, want 1", src.Name, n, cl.Now())
		}
		cl.Sleep(2 * scheduler.RequestLifetime(cfg.DAGTimeout))
	})
	for _, vm := range c.Internal().VMs() {
		if n := vm.Cache.SnapshotCount(); n != 0 {
			t.Errorf("%s holds %d snapshot tables at quiescence, want 0", vm.Name, n)
		}
	}
}

// requestKinds are the two shapes of the one tracked request (§3: a bare
// Invoke is the DAG of one node); tests of the §4.5 lifecycle run over
// both.
var requestKinds = []struct {
	name   string
	invoke func(cl *Client, opts ...InvokeOption) *Future
}{
	{"Invoke", func(cl *Client, opts ...InvokeOption) *Future { return cl.Invoke("step", nil, opts...) }},
	{"DAG", func(cl *Client, opts ...InvokeOption) *Future { return cl.InvokeDAG("step-dag", nil, opts...) }},
}

// registerStep registers what requestKinds invoke — a slow function and
// its one-node DAG pinned on two executors — and warms up the metric
// views so re-scheduling sees live executors.
func registerStep(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.RegisterFunction("step", func(ctx *Ctx, args []any) (any, error) {
		ctx.Compute(500 * time.Millisecond)
		return "done", nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDAG(LinearDAG("step-dag", "step"), 2); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) { cl.Sleep(5 * time.Second) })
}

// killTwoOfThree kills two of the three VMs right after a request was
// issued, so the executor running it is very likely dead mid-flight.
func killTwoOfThree(c *Cluster, cl *Client) {
	victims := c.Internal().VMs()
	cl.Kernel().Go("killer", func() {
		cl.Sleep(50 * time.Millisecond)
		c.Internal().KillVM(victims[0].Name)
		c.Internal().KillVM(victims[1].Name)
	})
}

func reexecutions(c *Cluster) (n int64) {
	for _, s := range c.Internal().Schedulers() {
		n += s.Reexecutions()
	}
	return n
}

// TestReexecutionAfterVMFailure: §4.5 for both kinds. The dispatching
// scheduler tracks the request, so an executor dying mid-flight makes it
// time out and re-execute the whole request elsewhere instead of
// stranding the client until its own timeout.
func TestReexecutionAfterVMFailure(t *testing.T) {
	for _, kind := range requestKinds {
		t.Run(kind.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.VMs = 3
			cfg.DAGTimeout = 2 * time.Second
			cfg.StaleAfter = 3 * time.Second
			c := testCluster(t, cfg)
			registerStep(t, c)
			c.Run(func(cl *Client) {
				cl.Timeout = 2 * time.Minute
				killTwoOfThree(c, cl)
				out, err := kind.invoke(cl).Wait()
				if err != nil {
					t.Errorf("request did not recover from VM failure: %v", err)
					return
				}
				if out.(string) != "done" {
					t.Errorf("result = %v", out)
					return
				}
				// The tracking table must drain once the result is delivered.
				cl.Sleep(5 * time.Second)
				for _, s := range c.Internal().Schedulers() {
					if n := s.Inflight(); n != 0 {
						t.Errorf("scheduler %s still tracks %d requests", s.ID(), n)
					}
				}
			})
			if !t.Failed() && reexecutions(c) == 0 {
				t.Fatal("no re-execution recorded")
			}
		})
	}
}

// TestPerRequestDeadlineDrivesReexecution: WithTimeout has a wire
// presence for both kinds — the request's Deadline replaces the global
// DAGTimeout as its §4.5 re-execution timer. With the global timer set
// absurdly long, recovery from a VM failure must still happen on the
// caller's 2s schedule.
func TestPerRequestDeadlineDrivesReexecution(t *testing.T) {
	for _, kind := range requestKinds {
		t.Run(kind.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.VMs = 3
			cfg.DAGTimeout = 2 * time.Minute
			cfg.StaleAfter = 3 * time.Second
			c := testCluster(t, cfg)
			registerStep(t, c)
			c.Run(func(cl *Client) {
				start := cl.Now()
				fut := kind.invoke(cl, WithTimeout(2*time.Second))
				killTwoOfThree(c, cl)
				// The future's wait bound is also 2s, so poll Wait until the
				// re-executed attempt lands.
				var out any
				var err error
				for i := 0; i < 20; i++ {
					out, err = fut.Wait()
					if err == nil {
						break
					}
				}
				if err != nil || out.(string) != "done" {
					t.Errorf("short-deadline request never recovered: %v, %v", out, err)
					return
				}
				elapsed := cl.Now() - start
				if elapsed >= cfg.DAGTimeout {
					t.Errorf("recovery took %v — the global timer fired, not the per-request deadline", elapsed)
				}
				if elapsed > 30*time.Second {
					t.Errorf("recovery took %v, want the ~2s deadline plus staleness horizon", elapsed)
				}
			})
			if !t.Failed() && reexecutions(c) == 0 {
				t.Fatal("no re-execution recorded")
			}
		})
	}
}

// TestWaitReroutesAfterSchedulerShardDies covers the shard-failover
// remnant of the sharded control plane: a request routed to a
// scheduler that dies before acking is tracked by no scheduler, so
// §4.5 re-execution never fires — Future.Wait must re-route it to the
// next-ranked shard at half its wait budget instead of hanging to the
// deadline.
func TestWaitReroutesAfterSchedulerShardDies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Schedulers = 2
	c := testCluster(t, cfg)
	registerArith(t, c)
	c.Run(func(cl *Client) {
		cl.Timeout = 12 * time.Second
		reqID := string(cl.ep.ID()) + "-r1" // the next Invoke's request ID
		primary := c.in.RouteScheduler(reqID, 0)
		backup := c.in.RouteScheduler(reqID, 1)
		if primary == backup {
			t.Fatalf("rendezvous ranking returned %s twice", primary)
		}
		c.in.Net.SetDown(primary, true)
		start := cl.Now()
		out, err := As[int](cl.Invoke("square", []any{6}))
		if err != nil {
			t.Fatalf("invoke through dead shard: %v", err)
		}
		if out != 36 {
			t.Fatalf("out = %d", out)
		}
		if waited := cl.Now() - start; waited < 5*time.Second {
			t.Fatalf("completed in %v — the re-route must fire at half the wait budget, not earlier", waited)
		}
		// The healed shard serves later requests normally again.
		c.in.Net.SetDown(primary, false)
		if out, err := As[int](cl.Invoke("increment", []any{9})); err != nil || out != 10 {
			t.Fatalf("post-heal invoke = %v, %v", out, err)
		}
	})
}

func TestRestartedVMReregistersWithSchedulers(t *testing.T) {
	// The rejoin half of the §4.5 lifecycle: after RestartVM, the
	// replacement's threads re-register through the ordinary metrics
	// path and the scheduler routes work to them. Killing every other
	// VM leaves the replacement as the only possible executor.
	cfg := DefaultConfig()
	cfg.VMs = 2
	cfg.VMSpinUp = 5 * time.Second
	c := testCluster(t, cfg)
	in := c.Internal()
	if err := c.RegisterFunction("where", func(ctx *Ctx, args []any) (any, error) {
		return ctx.ID(), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDAG(LinearDAG("where-dag", "where"), 2); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) { cl.Sleep(3 * time.Second) })

	c.Run(func(cl *Client) {
		cl.Timeout = time.Minute
		in.KillVM("vm0")
		replacement := in.RestartVM("vm0", false)
		if replacement == "" {
			t.Errorf("restart refused")
			return
		}
		cl.Sleep(6 * time.Second)  // spin-up
		in.KillVM("vm1")           // only the replacement remains
		cl.Sleep(12 * time.Second) // let vm1's metrics go stale
		var out any
		var err error
		for i := 0; i < 10; i++ {
			if out, err = cl.InvokeDAG("where-dag", nil).Wait(); err == nil {
				break
			}
		}
		if err != nil {
			t.Errorf("DAG never ran on the restarted VM: %v", err)
			return
		}
		if id := out.(string); !strings.Contains(id, replacement) {
			t.Errorf("ran on %q, want the replacement %q", id, replacement)
		}
	})
}

func TestDuplicateResultUnderInjectedReexecutionRace(t *testing.T) {
	// Asymmetric partition (only possible with per-node policies): cut
	// off the victim VM's metrics manager so the scheduler believes the
	// executor died, while the execution itself keeps running. Both the
	// original attempt and the §4.5 re-execution then complete, and the
	// client must keep the first Result and drop the duplicate.
	cfg := DefaultConfig()
	cfg.VMs = 2
	cfg.DAGTimeout = 2 * time.Second
	cfg.StaleAfter = 3 * time.Second
	c := testCluster(t, cfg)
	in := c.Internal()
	if err := c.RegisterFunction("slowmark", func(ctx *Ctx, args []any) (any, error) {
		if err := ctx.Put("ran-on", ctx.ID()); err != nil {
			return nil, err
		}
		ctx.Compute(12 * time.Second)
		return "done", nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDAG(LinearDAG("marked", "slowmark"), 1); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) { cl.Sleep(5 * time.Second) })

	before := completedSum(c)
	c.Run(func(cl *Client) {
		cl.Timeout = time.Minute
		// The killer watches for the marker write, derives the running
		// VM, and partitions only its metrics manager.
		cl.Kernel().Go("metrics-killer", func() {
			probe := c.newClient()
			for {
				probe.Sleep(100 * time.Millisecond)
				v, found, err := probe.Get("ran-on")
				if err != nil || !found {
					continue
				}
				id := v.(string) // "exec-<vm>-<i>#<seq>"
				vm := id[len("exec-"):strings.LastIndex(id[:strings.IndexByte(id, '#')], "-")]
				in.Net.SetDown(simnet.NodeID("vmmgr-"+vm), true)
				return
			}
		})
		fut := cl.InvokeDAG("marked", nil)
		out, err := fut.Wait()
		if err != nil || out.(string) != "done" {
			t.Fatalf("first result = %v, %v", out, err)
		}
		// Let the re-executed attempt finish and deliver its duplicate
		// Result; Wait drains the endpoint past it.
		cl.Sleep(20 * time.Second)
		if v, gerr := fut.Wait(); gerr != nil || v.(string) != "done" {
			t.Errorf("duplicate corrupted the completed future: %v %v", v, gerr)
		}
	})
	if t.Failed() {
		return
	}
	var reexecs int64
	for _, s := range in.Schedulers() {
		reexecs += s.Reexecutions()
	}
	if reexecs == 0 {
		t.Fatal("no re-execution happened: the race was not injected")
	}
	if delta := completedSum(c) - before; delta < 2 {
		t.Fatalf("only %d executions for 1 request — both attempts should have run", delta)
	}
}

// completedSum totals finished invocations across live executor threads.
func completedSum(c *Cluster) int64 {
	var total int64
	for _, vm := range c.Internal().VMs() {
		for _, th := range vm.Threads {
			total += th.Completed()
		}
	}
	return total
}

func TestIsolatedSchedulerDrainsAfterPartitionHeals(t *testing.T) {
	// A scheduler partitioned right after dispatching a DAG misses the
	// sink's RequestComplete: the request stays outstanding. Once the link
	// policy clears, the bounded alive-extension policy forces a
	// re-execution and the table drains — a lost completion notice must
	// not strand requests forever.
	cfg := DefaultConfig()
	cfg.VMs = 2
	cfg.DAGTimeout = 2 * time.Second
	c := testCluster(t, cfg)
	in := c.Internal()
	if err := c.RegisterFunction("brief", func(ctx *Ctx, args []any) (any, error) {
		ctx.Compute(300 * time.Millisecond)
		return "ok", nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDAG(LinearDAG("brief-dag", "brief"), 1); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) { cl.Sleep(5 * time.Second) })

	sched := in.Schedulers()[0]
	c.Run(func(cl *Client) {
		cl.Timeout = time.Minute
		cl.Kernel().Go("partitioner", func() {
			cl.Sleep(10 * time.Millisecond) // let the request and trigger through
			in.Net.SetNodePolicy(sched.ID(), simnet.LinkPolicy{Drop: 1})
		})
		// The data plane is unaffected: the sink replies directly to the
		// client even while the scheduler is isolated.
		out, err := cl.InvokeDAG("brief-dag", nil).Wait()
		if err != nil || out.(string) != "ok" {
			t.Fatalf("result through isolated scheduler = %v, %v", out, err)
		}
		if sched.Inflight() != 1 {
			t.Fatalf("inflight = %d, want 1 (RequestComplete must have been dropped)", sched.Inflight())
		}
		// Hold the partition across a few deadline expiries, then heal.
		cl.Sleep(5 * time.Second)
		in.Net.ClearNodePolicy(sched.ID())
		for i := 0; i < 60 && sched.Inflight() > 0; i++ {
			cl.Sleep(time.Second)
		}
		if got := sched.Inflight(); got != 0 {
			t.Errorf("outstanding DAGs did not drain after heal: inflight = %d", got)
		}
	})
	if t.Failed() {
		return
	}
	if sched.Reexecutions() == 0 {
		t.Fatal("drain happened without a re-execution — unexpected path")
	}
}

func TestCausalDecodeMemoHitsOnRepeatedReads(t *testing.T) {
	// Executors decode causal reads through the cluster's one decode
	// cache, named by capsule digest: concurrent reads of an unchanged
	// capsule on threads of several VMs all get the one decoded value.
	cfg := DefaultConfig()
	cfg.Mode = Causal
	c := testCluster(t, cfg)
	decoded := map[*string]bool{}
	vms := map[string]bool{}
	if err := c.RegisterFunction("readkey", func(ctx *Ctx, args []any) (any, error) {
		v := args[0].([]string)
		decoded[&v[0]] = true
		thread, _, _ := strings.Cut(ctx.ID(), "#")
		vms[thread[:strings.LastIndexByte(thread, '-')]] = true
		return v[0], nil
	}); err != nil {
		t.Fatal(err)
	}
	threads := c.Internal().ThreadCount()
	c.Run(func(cl *Client) {
		if err := cl.Put("memo-key", []string{"memo-payload"}); err != nil {
			t.Fatal(err)
		}
		cl.Sleep(2e9) // let executors boot and publish metrics
		futures := make([]*Future, 3*threads)
		for i := range futures {
			futures[i] = cl.Invoke("readkey", []any{Ref("memo-key")})
		}
		for i, f := range futures {
			out, err := f.Wait()
			if err != nil || out.(string) != "memo-payload" {
				t.Fatalf("invoke %d = %v, %v", i, out, err)
			}
		}
	})
	if len(vms) < 2 {
		t.Fatalf("%d reads ran on %d VM(s), want several", 3*threads, len(vms))
	}
	if len(decoded) != 1 {
		t.Fatalf("%d reads on %d VMs decoded the capsule %d times, want once", 3*threads, len(vms), len(decoded))
	}
}
