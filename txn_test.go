package cloudburst

import (
	"strings"
	"testing"
	"time"
)

// txnCluster boots a Transactional-mode cluster.
func txnCluster(t *testing.T) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = Transactional
	return testCluster(t, cfg)
}

// TestTxnCommitAtomicVisible: a transactional invocation's write set
// becomes visible as a unit after commit.
func TestTxnCommitAtomicVisible(t *testing.T) {
	c := txnCluster(t)
	if err := c.RegisterFunction("pair", func(ctx *Ctx, args []any) (any, error) {
		if err := ctx.Put("pair-a", args[0].(int)); err != nil {
			return nil, err
		}
		if err := ctx.Put("pair-b", args[0].(int)); err != nil {
			return nil, err
		}
		return "ok", nil
	}); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) {
		cl.Sleep(3 * time.Second)
		out, err := cl.Invoke("pair", []any{42}, WithTxn()).Wait()
		if err != nil {
			t.Fatalf("txn invoke: %v", err)
		}
		if out.(string) != "ok" {
			t.Fatalf("result = %v", out)
		}
		// The commit decision fans out asynchronously after the result;
		// give the one-way messages a moment.
		cl.Sleep(time.Second)
		a, foundA, _ := cl.Get("pair-a")
		b, foundB, _ := cl.Get("pair-b")
		if !foundA || !foundB {
			t.Fatalf("committed writes missing: a=%v b=%v", foundA, foundB)
		}
		if a.(int) != 42 || b.(int) != 42 {
			t.Fatalf("committed values: a=%v b=%v, want 42/42", a, b)
		}
	})
}

// TestTxnReadYourWrites: inside a transaction, Get sees the staged
// write before commit.
func TestTxnReadYourWrites(t *testing.T) {
	c := txnCluster(t)
	if err := c.RegisterFunction("ryw", func(ctx *Ctx, args []any) (any, error) {
		if err := ctx.Put("ryw-k", 7); err != nil {
			return nil, err
		}
		v, found, err := ctx.Get("ryw-k")
		if err != nil || !found {
			return nil, err
		}
		return v.(int), nil
	}); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) {
		cl.Sleep(3 * time.Second)
		out, err := cl.Invoke("ryw", nil, WithTxn()).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if out.(int) != 7 {
			t.Fatalf("read-your-writes = %v, want 7", out)
		}
	})
}

// TestTxnRequiresTransactionalMode: WithTxn in any other mode is a
// clean error, not a silent downgrade.
func TestTxnRequiresTransactionalMode(t *testing.T) {
	c := testCluster(t, DefaultConfig()) // LWW
	registerArith(t, c)
	c.Run(func(cl *Client) {
		cl.Sleep(3 * time.Second)
		_, err := cl.Invoke("square", []any{3}, WithTxn()).Wait()
		if err == nil || !strings.Contains(err.Error(), "Transactional consistency mode") {
			t.Fatalf("err = %v, want mode-requirement error", err)
		}
	})
}

// TestTxnFunctionErrorDiscardsWrites: a function error inside a
// transaction leaves no trace of its staged writes.
func TestTxnFunctionErrorDiscardsWrites(t *testing.T) {
	c := txnCluster(t)
	if err := c.RegisterFunction("failput", func(ctx *Ctx, args []any) (any, error) {
		if err := ctx.Put("leak", 1); err != nil {
			return nil, err
		}
		return nil, &testErr{}
	}); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) {
		cl.Sleep(3 * time.Second)
		if _, err := cl.Invoke("failput", nil, WithTxn()).Wait(); err == nil {
			t.Fatal("expected function error")
		}
		cl.Sleep(time.Second)
		if _, found, _ := cl.Get("leak"); found {
			t.Fatal("staged write leaked from a failed transactional invocation")
		}
	})
}

type testErr struct{}

func (*testErr) Error() string { return "boom" }

// TestTxnOCCNoLostUpdates: concurrent transactional read-modify-writes
// of one counter either commit or abort; the committed count exactly
// matches the final value — OCC validation admits no lost updates.
func TestTxnOCCNoLostUpdates(t *testing.T) {
	c := txnCluster(t)
	if err := c.RegisterFunction("incr", func(ctx *Ctx, args []any) (any, error) {
		v, _, err := ctx.Get("ctr")
		if err != nil {
			return nil, err
		}
		n := 0
		if v != nil {
			n = v.(int)
		}
		ctx.Compute(5 * time.Millisecond)
		if err := ctx.Put("ctr", n+1); err != nil {
			return nil, err
		}
		return n + 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) {
		if err := cl.Put("ctr", 0); err != nil {
			t.Fatal(err)
		}
		cl.Sleep(3 * time.Second)
	})
	commits, aborts := 0, 0
	c.RunN(4, func(i int, cl *Client) {
		cl.Timeout = 30 * time.Second
		for r := 0; r < 5; r++ {
			_, err := cl.Invoke("incr", nil, WithTxn()).Wait()
			switch {
			case err == nil:
				commits++
			case strings.Contains(err.Error(), "txn: aborted"):
				aborts++
			default:
				t.Errorf("incr: %v", err)
			}
		}
	})
	c.Run(func(cl *Client) {
		cl.Sleep(time.Second)
		v, found, err := cl.Get("ctr")
		if err != nil || !found {
			t.Fatalf("ctr: %v %v", found, err)
		}
		if v.(int) != commits {
			t.Fatalf("ctr = %d, want %d (commits; %d aborts) — lost update", v, commits, aborts)
		}
	})
	if commits == 0 {
		t.Fatal("no transaction committed")
	}
}

// TestTxnDAGCommitAtSink: a transactional DAG buffers writes across
// functions and commits once at the sink.
func TestTxnDAGCommitAtSink(t *testing.T) {
	c := txnCluster(t)
	if err := c.RegisterFunction("stage1", func(ctx *Ctx, args []any) (any, error) {
		if err := ctx.Put("dag-a", 1); err != nil {
			return nil, err
		}
		return 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterFunction("stage2", func(ctx *Ctx, args []any) (any, error) {
		// The upstream write is staged, not committed; a transactional
		// read must still see it (the write set rides the trigger).
		v, found, err := ctx.Get("dag-a")
		if err != nil || !found {
			return nil, err
		}
		if err := ctx.Put("dag-b", v.(int)+1); err != nil {
			return nil, err
		}
		return v.(int) + 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDAG(LinearDAG("txndag", "stage1", "stage2"), 1); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *Client) {
		cl.Sleep(3 * time.Second)
		out, err := cl.InvokeDAG("txndag", nil, WithTxn()).Wait()
		if err != nil {
			t.Fatalf("txn dag: %v", err)
		}
		if out.(int) != 2 {
			t.Fatalf("sink result = %v, want 2", out)
		}
		cl.Sleep(time.Second)
		a, foundA, _ := cl.Get("dag-a")
		b, foundB, _ := cl.Get("dag-b")
		if !foundA || !foundB || a.(int) != 1 || b.(int) != 2 {
			t.Fatalf("dag writes: a=%v(%v) b=%v(%v), want 1/2", a, foundA, b, foundB)
		}
	})
}

// TestSingleSurvivesSchedulerDeath: the executing VM dies mid-single and
// then the shard that acked the request is downed, so no scheduler can
// re-execute it. Future.Wait's half-budget re-route to the next-ranked
// shard is what recovers it.
func TestSingleSurvivesSchedulerDeath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Schedulers = 2
	cfg.VMs = 3
	c := testCluster(t, cfg)
	if err := c.RegisterFunction("slowmid", func(ctx *Ctx, args []any) (any, error) {
		ctx.Hook("test/mid-single")
		ctx.Compute(2 * time.Second)
		return 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	in := c.Internal()
	// The executing VM dies the moment the function starts: the first
	// execution can never deliver a result.
	in.Hooks().Arm("test/mid-single", func(vm string) bool {
		in.KillVM(vm)
		return true
	})
	c.Run(func(cl *Client) {
		cl.Sleep(3 * time.Second)
		cl.Timeout = 2 * time.Minute
		start := cl.Now()
		fut := cl.Invoke("slowmid", nil)
		cl.Sleep(500 * time.Millisecond)

		// Down the shard that tracks the single: its re-executions vanish.
		scheds, owner := in.Schedulers(), -1
		for i, s := range scheds {
			if s.Inflight() > 0 {
				owner = i
			}
		}
		if owner < 0 {
			t.Fatal("no scheduler tracked the single")
		}
		in.Net.SetDown(scheds[owner].ID(), true)

		out, err := fut.Wait()
		if err != nil {
			t.Fatalf("single lost after scheduler-shard death: %v", err)
		}
		if out.(int) != 1 {
			t.Fatalf("result = %v", out)
		}
		if took := cl.Now() - start; took < cl.Timeout/2 {
			t.Fatalf("result after %v, before the half-budget re-route — it arrived some other way", took)
		}
	})
}
