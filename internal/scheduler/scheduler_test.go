package scheduler_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	cb "cloudburst"
	"cloudburst/internal/anna"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/dag"
	"cloudburst/internal/executor"
	"cloudburst/internal/lattice"
	"cloudburst/internal/scheduler"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// The first group drives the scheduler through the public cluster API:
// registration, locality and backpressure are only meaningful against
// live executors and Anna. The second group (from rig down) drives the
// §4.5 request-tracking state machine directly, against fake executors.

func TestRegistrationPersistsAcrossSchedulers(t *testing.T) {
	cfg := cb.DefaultConfig()
	cfg.Schedulers = 3
	c := cb.NewCluster(cfg)
	defer c.Close()
	if err := c.RegisterFunction("f", func(ctx *cb.Ctx, args []any) (any, error) { return "ok", nil }); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDAG(cb.LinearDAG("d", "f"), 1); err != nil {
		t.Fatal(err)
	}
	// Calls round-robin across schedulers; registration was stored in
	// Anna, so every scheduler can serve the DAG.
	c.Run(func(cl *cb.Client) {
		cl.Sleep(3 * time.Second)
		for i := 0; i < 12; i++ {
			out, err := cl.InvokeDAG("d", nil).Wait()
			if err != nil || out.(string) != "ok" {
				t.Fatalf("call %d via random scheduler: %v %v", i, out, err)
			}
		}
	})
}

// TestRegisterDAGKeepsItsTopology registers one DAG name through two
// schedulers over one Anna. The same function list registers again
// anywhere. The list reordered, shorter or other is refused by the
// scheduler that stored the name and, through Anna, by one that never
// saw it, and Anna keeps the first list.
func TestRegisterDAGKeepsItsTopology(t *testing.T) {
	k := vtime.NewKernel(1)
	t.Cleanup(k.Stop)
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(200 * time.Microsecond)})
	kv := anna.NewKVS(k, net, anna.DefaultConfig())
	var scheds []simnet.NodeID
	for i := 0; i < 2; i++ {
		ep := net.AddNode(simnet.NodeID(fmt.Sprintf("sched-%d", i)))
		s := scheduler.New(k, ep, kv.NewClient(ep, 0), scheduler.DefaultConfig(), i, 2)
		s.Start()
		scheds = append(scheds, s.ID())
	}
	client := net.AddNode("client-0")
	abc := []string{"a", "b", "c"}
	// The second scheduler's refusals come before its "same": it has not
	// resolved the name, so they are Anna's.
	cases := []struct {
		name  string
		sched int
		fns   []string
		ok    bool
	}{
		{"first", 0, abc, true},
		{"same", 0, abc, true},
		{"reordered", 0, []string{"b", "a", "c"}, false},
		{"shorter", 0, []string{"a", "b"}, false},
		{"other", 0, []string{"a", "b", "e"}, false},
		{"reordered via Anna", 1, []string{"b", "a", "c"}, false},
		{"shorter via Anna", 1, []string{"a", "b"}, false},
		{"other via Anna", 1, []string{"a", "b", "e"}, false},
		{"same via Anna", 1, abc, true},
	}
	k.Run("test", func() {
		for _, f := range []string{"a", "b", "c", "e"} {
			if resp, err := client.Call(scheds[0], scheduler.RegisterFunctionReq{Name: f}, 64, 10*time.Second); err != nil || !resp.(scheduler.RegisterResp).OK {
				t.Fatalf("register %s: %v, %v", f, resp, err)
			}
		}
		for _, c := range cases {
			resp, err := client.Call(scheds[c.sched], scheduler.RegisterDAGReq{DAG: *dag.Linear("d", c.fns...), Replicas: 1}, 256, 10*time.Second)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if r := resp.(scheduler.RegisterResp); r.OK != c.ok {
				t.Errorf("%s: registered %v (%q), want %v", c.name, r.OK, r.Err, c.ok)
			}
		}
		stored, ok := core.Fetch[dag.DAG](kv.NewClient(client, 0), core.NewDecodeCache(), core.DAGKey("d"))
		if !ok || !slices.Equal(stored.Functions, abc) {
			t.Errorf("Anna holds %+v, want the first list %v", stored, abc)
		}
	})
}

func TestBurstSpreadsAcrossThreads(t *testing.T) {
	cfg := cb.DefaultConfig()
	cfg.VMs = 3 // 9 threads
	c := cb.NewCluster(cfg)
	defer c.Close()
	if err := c.RegisterFunction("who", func(ctx *cb.Ctx, args []any) (any, error) {
		ctx.Compute(20 * time.Millisecond)
		return ctx.ID(), nil
	}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second) })
	c.RunN(9, func(i int, cl *cb.Client) {
		out, err := cl.Invoke("who", nil).Wait()
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		id := out.(string)
		for j := 0; j < len(id); j++ {
			if id[j] == '#' {
				id = id[:j]
				break
			}
		}
		seen[id] = true
	})
	// A 9-wide burst against 9 threads must not stack: expect most
	// threads used (allowing a little randomness).
	if len(seen) < 7 {
		t.Fatalf("burst used only %d distinct threads: %v", len(seen), seen)
	}
}

func TestDAGRoutesToPinnedExecutors(t *testing.T) {
	cfg := cb.DefaultConfig()
	cfg.VMs = 4
	c := cb.NewCluster(cfg)
	defer c.Close()
	if err := c.RegisterFunction("pinme", func(ctx *cb.Ctx, args []any) (any, error) {
		return ctx.ID(), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDAG(cb.LinearDAG("pd", "pinme"), 2); err != nil {
		t.Fatal(err)
	}
	threads := map[string]bool{}
	c.Run(func(cl *cb.Client) {
		cl.Sleep(3 * time.Second)
		for i := 0; i < 30; i++ {
			out, err := cl.InvokeDAG("pd", nil).Wait()
			if err != nil {
				t.Fatal(err)
			}
			id := out.(string)
			for j := 0; j < len(id); j++ {
				if id[j] == '#' {
					id = id[:j]
					break
				}
			}
			threads[id] = true
		}
	})
	// Pinned on 2 executors: all executions stay on those two.
	if len(threads) != 2 {
		t.Fatalf("DAG ran on %d threads, want the 2 pinned: %v", len(threads), threads)
	}
}

func TestUnknownFunctionRejectedAtRegistration(t *testing.T) {
	c := cb.NewCluster(cb.DefaultConfig())
	defer c.Close()
	if err := c.RegisterDAG(cb.LinearDAG("bad", "ghost"), 1); err == nil {
		t.Fatal("DAG over unknown function accepted")
	}
}

func TestManyConcurrentDAGs(t *testing.T) {
	cfg := cb.DefaultConfig()
	cfg.VMs = 3
	c := cb.NewCluster(cfg)
	defer c.Close()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("fn%d", i)
		if err := c.RegisterFunction(name, func(ctx *cb.Ctx, args []any) (any, error) {
			ctx.Compute(time.Millisecond)
			return i, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RegisterDAG(cb.LinearDAG("chain", "fn0", "fn1", "fn2"), 2); err != nil {
		t.Fatal(err)
	}
	errs := 0
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second) })
	c.RunN(12, func(i int, cl *cb.Client) {
		cl.Timeout = time.Minute
		for r := 0; r < 10; r++ {
			if _, err := cl.InvokeDAG("chain", nil).Wait(); err != nil {
				errs++
			}
		}
	})
	if errs > 0 {
		t.Fatalf("%d of 120 concurrent DAG requests failed", errs)
	}
}

// rig is one scheduler on a simnet with a real Anna behind it, a client
// endpoint that collects Results, and fake executors: endpoints that
// record the work the scheduler sends them and do only what the test
// tells them to — report metrics (the scheduler's liveness signal) or
// not, send the completion notice or not.
type rig struct {
	k       *vtime.Kernel
	sched   *scheduler.Scheduler
	client  *simnet.Endpoint
	execs   []*fakeExec
	work    []work         // every attempt any executor received, in arrival order
	results []*core.Result // everything the client heard
}

type fakeExec struct {
	ep        *simnet.Endpoint
	reporting bool
	completes bool
	pinned    map[string]bool // functions the scheduler pinned here
}

type work struct {
	exec    simnet.NodeID
	reqID   string
	at      vtime.Time
	trigger *core.DAGTrigger // a DAG attempt's source trigger
}

func newRig(t *testing.T, cfg scheduler.Config, execs int) *rig {
	k := vtime.NewKernel(1)
	t.Cleanup(k.Stop)
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(200 * time.Microsecond)})
	kv := anna.NewKVS(k, net, anna.DefaultConfig())
	r := &rig{k: k, client: net.AddNode("client-0")}
	ep := net.AddNode("sched-0")
	r.sched = scheduler.New(k, ep, kv.NewClient(ep, 0), cfg, 0, 1)
	r.sched.Start()
	k.Go("client", func() {
		for {
			if res, ok := r.client.Recv().Payload.(*core.Result); ok {
				r.results = append(r.results, res)
			}
		}
	})
	var registry []string
	for i := 0; i < execs; i++ {
		e := &fakeExec{ep: net.AddNode(simnet.NodeID(fmt.Sprintf("exec-%d", i))), reporting: true, pinned: map[string]bool{}}
		r.execs = append(r.execs, e)
		registry = append(registry, core.ExecMetricsKey(string(e.ep.ID())))
		k.Go(string(e.ep.ID()), func() {
			for {
				m := e.ep.Recv()
				w := work{exec: e.ep.ID(), at: k.Now()}
				switch b := m.Payload.(type) {
				case *core.InvokeRequest:
					w.reqID = b.ReqID
				case *core.DAGTrigger:
					w.reqID, w.trigger = b.Schedule.ReqID, b
				case core.PinFunction:
					e.pinned[b.Function] = true
					continue
				default:
					continue
				}
				r.work = append(r.work, w)
				reqID := w.reqID
				if e.completes {
					e.ep.Send(r.sched.ID(), &core.RequestComplete{ReqID: reqID}, 32)
				}
			}
		})
	}
	pub := kv.NewClient(net.AddNode("publisher"), 0)
	k.Go("publisher", func() {
		pub.Put(executor.MetricListKey, lattice.NewSet(registry...))
		for {
			for _, e := range r.execs {
				if !e.reporting {
					continue
				}
				m := core.ExecutorMetrics{Thread: e.ep.ID(), VM: "vm-" + string(e.ep.ID()), ReportedAtS: k.Now().Seconds()}
				pub.Put(core.ExecMetricsKey(string(e.ep.ID())),
					lattice.NewLWW(lattice.Timestamp{Clock: int64(k.Now()), Node: 7}, codec.MustEncode(m)))
			}
			k.Sleep(time.Second)
		}
	})
	return r
}

// requestKinds are the two wire forms of the one tracked request.
var requestKinds = []struct {
	name string
	make func(id string, respondTo simnet.NodeID, deadline time.Duration) any
}{
	{"single", func(id string, respondTo simnet.NodeID, deadline time.Duration) any {
		return &core.InvokeRequest{ReqID: id, Function: "f", RespondTo: respondTo, Deadline: deadline}
	}},
	{"DAG", func(id string, respondTo simnet.NodeID, deadline time.Duration) any {
		return &scheduler.DAGInvokeReq{ReqID: id, DAG: "d", RespondTo: respondTo, Deadline: deadline}
	}},
}

// TestRequestTracking is the §4.5 state machine, one table over both
// request kinds: what starts a record, what extends, re-executes and
// fails it, and what ends it. Every attempt counts outstanding on its
// executor until its request ends, so once nothing is tracked every
// thread's count is back to 0: after completion, terminal failure and
// re-execution (the abandoned attempts' counts come off with the
// request's), and after a pick that fails (no-executors; a DAG's picks
// run against one view, so only its first function's can fail).
func TestRequestTracking(t *testing.T) {
	type scenario struct {
		name         string
		dagTimeout   time.Duration
		execs        int
		dispatchCost time.Duration
		// run executes inside the simulation, after registration and a
		// view warm-up; send issues the request under test.
		run func(t *testing.T, r *rig, send func(deadline time.Duration))
	}
	scenarios := []scenario{
		// The completion notice clears the record, and a second one is
		// ignored.
		{"completion", 2 * time.Second, 1, 0,
			func(t *testing.T, r *rig, send func(time.Duration)) {
				r.execs[0].completes = true
				send(0)
				r.k.Sleep(time.Second)
				if len(r.work) != 1 || r.sched.Inflight() != 0 {
					t.Errorf("after completion: %d attempts, %d tracked; want 1 and 0", len(r.work), r.sched.Inflight())
				}
				r.client.Send(r.sched.ID(), &core.RequestComplete{ReqID: "req"}, 32)
				r.k.Sleep(10 * time.Second)
				if len(r.work) != 1 || r.sched.Inflight() != 0 || r.sched.Reexecutions() != 0 {
					t.Errorf("after a second notice: %d attempts, %d tracked, %d re-executions",
						len(r.work), r.sched.Inflight(), r.sched.Reexecutions())
				}
			}},
		// An alive executor earns at most three extensions, and retries run
		// out into a terminal Result.
		{"extensions-then-exhaustion", 2 * time.Second, 1, 0,
			func(t *testing.T, r *rig, send func(time.Duration)) {
				t0 := r.k.Now()
				send(0)
				// Each expiry is noticed by the retry scan (every
				// DAGTimeout/4) at or up to 0.5s after the deadline, so an
				// attempt with three extensions lasts between 8s and 10s.
				r.k.Sleep(7900 * time.Millisecond)
				if len(r.work) != 1 || r.sched.Reexecutions() != 0 {
					t.Errorf("at 7.9s: %d attempts, %d re-executions; want the original still extended", len(r.work), r.sched.Reexecutions())
				}
				r.k.Sleep(2100 * time.Millisecond)
				if len(r.work) != 2 || r.work[1].at.Sub(t0) < 8*time.Second {
					t.Errorf("at 10s: attempts %v; want exactly one re-execution, after 8s", r.work)
				}
				r.k.Sleep(35 * time.Second)
				if len(r.work) != 4 || r.sched.Reexecutions() != 3 {
					t.Errorf("%d attempts, %d re-executions; want 4 and 3", len(r.work), r.sched.Reexecutions())
				}
				if len(r.results) != 1 || !strings.Contains(r.results[0].Err, "failed after retries") {
					t.Errorf("client heard %v; want one terminal failure", r.results)
				}
				if r.sched.Inflight() != 0 {
					t.Errorf("%d still tracked after the terminal failure", r.sched.Inflight())
				}
			}},
		// A stale executor's request is re-executed on a different executor.
		{"stale-executor", 2 * time.Second, 2, 0,
			func(t *testing.T, r *rig, send func(time.Duration)) {
				send(0)
				r.k.Sleep(500 * time.Millisecond)
				if len(r.work) != 1 {
					t.Errorf("%d attempts after dispatch, want 1", len(r.work))
					return
				}
				for _, e := range r.execs {
					e.reporting = e.ep.ID() != r.work[0].exec
					e.completes = e.reporting
				}
				// Far sooner than the 8s an all-alive fleet would be given.
				r.k.Sleep(6 * time.Second)
				if len(r.work) != 2 || r.work[1].exec == r.work[0].exec {
					t.Errorf("attempts %v; want a second one on the other executor", r.work)
				}
				if r.sched.Reexecutions() != 1 || r.sched.Inflight() != 0 {
					t.Errorf("%d re-executions, %d tracked; want 1 and 0", r.sched.Reexecutions(), r.sched.Inflight())
				}
			}},
		// A duplicated request datagram is not dispatched twice.
		{"duplicate-datagram", 2 * time.Second, 1, 0,
			func(t *testing.T, r *rig, send func(time.Duration)) {
				send(0)
				send(0)
				r.k.Sleep(time.Second)
				if len(r.work) != 1 || r.sched.Inflight() != 1 {
					t.Errorf("%d attempts, %d tracked; want 1 and 1", len(r.work), r.sched.Inflight())
				}
				if out := r.sched.Outstanding(); len(out) != 1 || out["exec-0"] != 1 {
					t.Errorf("outstanding %v, want the one attempt on exec-0", out)
				}
			}},
		// A Deadline shorter than DAGTimeout fires before the first retry
		// tick.
		{"short-deadline", time.Minute, 1, 0,
			func(t *testing.T, r *rig, send func(time.Duration)) {
				send(time.Second)
				r.k.Sleep(5 * time.Second) // original + three extensions = 4s
				if len(r.work) != 2 || r.sched.Reexecutions() != 1 {
					t.Errorf("%d attempts, %d re-executions; want 2 and 1", len(r.work), r.sched.Reexecutions())
				}
				if now := time.Duration(r.k.Now()); now >= 15*time.Second {
					t.Errorf("checked at %v, after the first retry tick — the test proves nothing", now)
				}
			}},
		// A request that completes while its re-execution still pays the
		// dispatch cost is not dispatched again: the re-execution finds its
		// record gone and stops.
		{"completes-during-reexecution", 2 * time.Second, 2, time.Second,
			func(t *testing.T, r *rig, send func(time.Duration)) {
				send(0)
				r.k.Sleep(1500 * time.Millisecond)
				if len(r.work) != 1 {
					t.Errorf("%d attempts after dispatch, want 1", len(r.work))
					return
				}
				for _, e := range r.execs {
					e.reporting = e.ep.ID() != r.work[0].exec
				}
				for r.sched.Reexecutions() == 0 {
					r.k.Sleep(10 * time.Millisecond)
				}
				r.client.Send(r.sched.ID(), &core.RequestComplete{ReqID: "req"}, 32)
				r.k.Sleep(30 * time.Second)
				if len(r.work) != 1 || r.sched.Inflight() != 0 || len(r.results) != 0 {
					t.Errorf("%d attempts, %d tracked, client heard %v; want 1, 0 and nothing",
						len(r.work), r.sched.Inflight(), r.results)
				}
			}},
		// No executors: the client hears an error and nothing is tracked.
		{"no-executors", 2 * time.Second, 0, 0,
			func(t *testing.T, r *rig, send func(time.Duration)) {
				send(0)
				r.k.Sleep(5 * time.Second)
				if len(r.results) != 1 || !strings.Contains(r.results[0].Err, "no executors") {
					t.Errorf("client heard %v; want one no-executors error", r.results)
				}
				if r.sched.Inflight() != 0 {
					t.Errorf("%d tracked, want 0", r.sched.Inflight())
				}
			}},
	}
	for _, sc := range scenarios {
		for _, kind := range requestKinds {
			t.Run(kind.name+"/"+sc.name, func(t *testing.T) {
				cfg := scheduler.DefaultConfig()
				cfg.DAGTimeout = sc.dagTimeout
				cfg.StaleAfter = 3 * time.Second
				cfg.DispatchCost = sc.dispatchCost
				r := newRig(t, cfg, sc.execs)
				r.k.Run("test", func() {
					for _, req := range []any{
						scheduler.RegisterFunctionReq{Name: "f"},
						scheduler.RegisterDAGReq{DAG: *dag.Linear("d", "f")},
					} {
						resp, err := r.client.Call(r.sched.ID(), req, 64, 10*time.Second)
						if err != nil || !resp.(scheduler.RegisterResp).OK {
							t.Errorf("%T: %v, %v", req, resp, err)
							return
						}
					}
					r.k.Sleep(2 * time.Second) // the view picks up the executors
					sc.run(t, r, func(deadline time.Duration) {
						r.client.Send(r.sched.ID(), kind.make("req", r.client.ID(), deadline), 128)
					})
				})
				if out := r.sched.Outstanding(); r.sched.Inflight() == 0 && len(out) != 0 {
					t.Errorf("nothing tracked, yet outstanding %v", out)
				}
			})
		}
	}
}

// TestDispatchScheduleMatchesNameOracle dispatches seeded random chains
// of 1 to 6 functions, declared out of name order, each function pinned
// on one of four executors, and holds the position-indexed schedule to a
// name-keyed oracle: each function's thread is one pinned with that
// function, the scheduler triggers only the first function, at its
// assigned thread, and each function's client arguments are the ones the
// request named it with.
func TestDispatchScheduleMatchesNameOracle(t *testing.T) {
	cfg := scheduler.DefaultConfig()
	cfg.StaleAfter = 3 * time.Second
	r := newRig(t, cfg, 4)
	rng := rand.New(rand.NewSource(44))
	r.k.Run("test", func() {
		call := func(req any) {
			if resp, err := r.client.Call(r.sched.ID(), req, 64, 10*time.Second); err != nil || !resp.(scheduler.RegisterResp).OK {
				t.Fatalf("%T: %v, %v", req, resp, err)
			}
		}
		for f := 'a'; f <= 'f'; f++ {
			call(scheduler.RegisterFunctionReq{Name: string(f)})
		}
		r.k.Sleep(2 * time.Second) // the view picks up the executors
		for n := 0; n < 100; n++ {
			size := rng.Intn(6) + 1
			fns := make([]string, size)
			for j, p := range rng.Perm(size) {
				fns[j] = string(rune('a' + p))
			}
			d := dag.Linear(fmt.Sprintf("d%d", n), fns...)
			call(scheduler.RegisterDAGReq{DAG: *d, Replicas: 1})
			want := map[string]string{} // function → its client argument
			var args []core.FnArgs
			for _, f := range fns {
				if rng.Intn(2) == 0 {
					want[f] = "arg-" + f
					args = append(args, core.FnArgs{Fn: f, Args: []core.Arg{{Val: []byte(want[f])}}})
				}
			}
			core.SortFnArgs(args)
			reqID := fmt.Sprintf("req-%d", n)
			from := len(r.work)
			r.client.Send(r.sched.ID(), &scheduler.DAGInvokeReq{ReqID: reqID, DAG: d.Name, Args: args, RespondTo: r.client.ID()}, 128)
			r.k.Sleep(100 * time.Millisecond)

			var triggered []string
			for _, w := range r.work[from:] {
				if w.trigger == nil || w.reqID != reqID {
					t.Fatalf("%s: unexpected attempt %+v", d.Name, w)
				}
				s, f := w.trigger.Schedule, fns[w.trigger.Target]
				if w.exec != s.Assignments[w.trigger.Target] {
					t.Fatalf("%s: trigger for %s went to %s, schedule says %s", d.Name, f, w.exec, s.Assignments[w.trigger.Target])
				}
				triggered = append(triggered, f)
			}
			if !slices.Equal(triggered, fns[:1]) {
				t.Fatalf("%s: triggered %v, want only %s", d.Name, triggered, fns[0])
			}
			s := r.work[from].trigger.Schedule
			if len(s.Assignments) != len(fns) {
				t.Fatalf("%s: %d assignments for %d functions", d.Name, len(s.Assignments), len(fns))
			}
			for i, f := range fns {
				var e *fakeExec
				for _, x := range r.execs {
					if x.ep.ID() == s.Assignments[i] {
						e = x
					}
				}
				if e == nil || !e.pinned[f] {
					t.Fatalf("%s: %s assigned to %s, which does not have it pinned", d.Name, f, s.Assignments[i])
				}
				var got string
				if a := core.ArgsFor(s.Args, f); a != nil {
					got = string(a[0].Val)
				}
				if got != want[f] {
					t.Fatalf("%s: %s's client argument %q, want %q", d.Name, f, got, want[f])
				}
			}
		}
	})
}
