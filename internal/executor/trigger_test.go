package executor

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/cache"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/dag"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// TestSessionMetaOnlyWhereTheModeReadsIt runs the hops a → b of the chain
// a → b → c on one thread, from a source trigger carrying no session
// metadata as the scheduler sends it, and catches b's trigger to c. Under
// LWW no hop makes session metadata: the functions run without a session
// and the trigger carries the zero SessionMeta. Under DSC the source hop
// makes one and it travels on to c.
func TestSessionMetaOnlyWhereTheModeReadsIt(t *testing.T) {
	for _, mode := range []core.Mode{core.LWW, core.DSC} {
		t.Run(mode.String(), func(t *testing.T) {
			k := vtime.NewKernel(1)
			t.Cleanup(k.Stop)
			net := simnet.New(k, simnet.Link{Latency: simnet.Constant(100 * time.Microsecond)})
			kv := anna.NewKVS(k, net, anna.DefaultConfig())
			cacheEP := net.AddNode("cache-vm0")
			ch := cache.New(k, cacheEP, kv.NewClient(cacheEP, 0), "vm0", cache.DefaultConfig(mode))
			ch.Start()

			var sessions []*core.SessionMeta // what each function ran under
			reg := NewRegistry()
			for _, fn := range []string{"a", "b", "c"} {
				reg.Register(fn, func(ctx *Ctx, _ []any) (any, error) {
					sessions = append(sessions, ctx.meta)
					_, _, err := ctx.Get("k") // a session records the cache it read through
					return fn, err
				})
			}
			chain := dag.Linear("chain", "a", "b", "c")
			ep := net.AddNode("exec-vm0-0")
			th := NewThread(k, ep, "vm0", Deps{
				Cache: ch, Anna: kv.NewClient(ep, 0), Registry: reg,
				DAGFor: func(string) (*dag.DAG, bool) { return chain, true },
			})
			th.Start()
			sink := net.AddNode("exec-vm0-1")
			client := net.AddNode("client-0")
			sched := &core.DAGSchedule{
				ReqID: "r1", DAG: "chain", RespondTo: client.ID(),
				Assignments: []simnet.NodeID{ep.ID(), ep.ID(), sink.ID()},
			}

			k.Run("test", func() {
				client.Send(ep.ID(), &core.DAGTrigger{Schedule: sched, Target: 0}, 128)
				tr, ok := sink.Recv().Payload.(*core.DAGTrigger)
				if !ok || tr.Target != 2 {
					t.Fatalf("sink received %+v, want b's trigger to c", tr)
				}
				if len(sessions) != 2 {
					t.Fatalf("%d functions ran, want a and b", len(sessions))
				}
				made := tr.Meta.ReadSet != nil || tr.Meta.Deps != nil || tr.Meta.Caches != nil
				switch mode {
				case core.LWW:
					if sessions[0] != nil || sessions[1] != nil || made {
						t.Errorf("LWW hops made session metadata: a %v, b %v, trigger %+v", sessions[0], sessions[1], tr.Meta)
					}
				case core.DSC:
					if sessions[0] == nil || sessions[0].ReadSet == nil || sessions[1] == nil || !tr.Meta.Caches[ch.ID()] {
						t.Errorf("DSC hops lost the session: a %v, b %v, trigger %+v", sessions[0], sessions[1], tr.Meta)
					}
				}
			})
		})
	}
}

// routingChains returns the chain c → b → a and n seeded random chains
// of 1 to 6 functions. Every chain declares its functions out of name
// order, so a routing that fell back to name order, or to any order but
// the declared one, would show.
func routingChains(rng *rand.Rand, n int) []*dag.DAG {
	ds := []*dag.DAG{dag.Linear("chain", "c", "b", "a")}
	for i := 0; i < n; i++ {
		k := rng.Intn(6) + 1
		fns := make([]string, k)
		for j, p := range rng.Perm(k) {
			fns[j] = string(rune('a' + p))
		}
		ds = append(ds, dag.Linear(fmt.Sprintf("rnd-%d", i), fns...))
	}
	return ds
}

// TestPositionRoutingMatchesNameOracle runs seeded random chains over
// four threads from a position-indexed schedule and holds every hop to a
// name-keyed oracle: each function runs once, on the thread a
// name→thread map gives it (so every trigger went there), with its own
// client arguments first and then its upstream function's result, and
// the last function answers the client. A schedule whose function count
// is not the resolved DAG's fails with an error.
func TestPositionRoutingMatchesNameOracle(t *testing.T) {
	k := vtime.NewKernel(1)
	t.Cleanup(k.Stop)
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(100 * time.Microsecond)})
	kv := anna.NewKVS(k, net, anna.DefaultConfig())
	cacheEP := net.AddNode("cache-vm0")
	ch := cache.New(k, cacheEP, kv.NewClient(cacheEP, 0), "vm0", cache.DefaultConfig(core.LWW))
	ch.Start()

	type run struct {
		thread simnet.NodeID
		args   []string
	}
	ran := map[string][]run{} // function name → its runs in the current request
	reg := NewRegistry()
	for f := 'a'; f <= 'z'; f++ {
		name := string(f)
		reg.Register(name, func(ctx *Ctx, args []any) (any, error) {
			thread, _, _ := strings.Cut(ctx.ID(), "#")
			r := run{thread: simnet.NodeID(thread)}
			for _, a := range args {
				r.args = append(r.args, a.(string))
			}
			ran[name] = append(ran[name], r)
			return name, nil
		})
	}
	rng := rand.New(rand.NewSource(44))
	chains := routingChains(rng, 200)
	byName := map[string]*dag.DAG{}
	for _, d := range chains {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		byName[d.Name] = d
	}
	var threads []simnet.NodeID
	for i := 0; i < 4; i++ {
		ep := net.AddNode(simnet.NodeID(fmt.Sprintf("exec-vm0-%d", i)))
		th := NewThread(k, ep, "vm0", Deps{
			Cache: ch, Anna: kv.NewClient(ep, 0), Registry: reg,
			DAGFor: func(name string) (*dag.DAG, bool) { d, ok := byName[name]; return d, ok },
		})
		th.Start()
		threads = append(threads, ep.ID())
	}
	client := net.AddNode("client-0")

	lengths := map[int]bool{}
	k.Run("test", func() {
		for n, d := range chains {
			lengths[len(d.Functions)] = true
			// The oracle, by name: a thread and maybe client arguments for
			// each function, and each function's upstream.
			owner := map[string]simnet.NodeID{}
			clientArg := map[string]string{}
			upstream := map[string]string{}
			var args []core.FnArgs
			for i, f := range d.Functions {
				owner[f] = threads[rng.Intn(len(threads))]
				if rng.Intn(2) == 0 {
					clientArg[f] = "arg-" + f
					args = append(args, core.FnArgs{Fn: f, Args: []core.Arg{{Val: codec.MustEncode(clientArg[f])}}})
				}
				if i > 0 {
					upstream[f] = d.Functions[i-1]
				}
			}
			core.SortFnArgs(args)
			// The position-indexed schedule the scheduler would build.
			sched := &core.DAGSchedule{ReqID: fmt.Sprintf("r%d", n), DAG: d.Name, RespondTo: client.ID(), Args: args}
			for _, f := range d.Functions {
				sched.Assignments = append(sched.Assignments, owner[f])
			}
			clear(ran)
			client.Send(sched.Assignments[0], &core.DAGTrigger{Schedule: sched}, 128)
			if res := client.Recv().Payload.(*core.Result); !res.OK() || res.ReqID != sched.ReqID {
				t.Fatalf("%s %v: result %+v", d.Name, d.Functions, res)
			}
			for _, f := range d.Functions {
				var want []string
				if a, ok := clientArg[f]; ok {
					want = append(want, a)
				}
				if u, ok := upstream[f]; ok {
					want = append(want, u)
				}
				if got := ran[f]; len(got) != 1 || got[0].thread != owner[f] || !slices.Equal(got[0].args, want) {
					t.Fatalf("%s %v: %s ran %+v, want once on %s with %v", d.Name, d.Functions, f, got, owner[f], want)
				}
			}
		}
		// A schedule built from another function list under the same name
		// (the DAG re-registered after the thread resolved it) fails the
		// request instead of routing by positions the thread's DAG lacks.
		stale := &core.DAGSchedule{ReqID: "stale", DAG: "chain", RespondTo: client.ID(), Assignments: threads}
		client.Send(threads[0], &core.DAGTrigger{Schedule: stale, Target: 3}, 128)
		if res := client.Recv().Payload.(*core.Result); res.OK() || res.ReqID != "stale" {
			t.Fatalf("a 4-function schedule for the 3-function chain: %+v, want an error", res)
		}
	})
	if len(lengths) != 6 {
		t.Fatalf("coverage: chain lengths %v, want each of 1 to 6", lengths)
	}
}

// TestInPlaceHopStartsItsOwnSession runs the MK chain rd → wr with both
// functions on one thread, so wr runs in place after rd. Under MK each
// function's session is its own and ends with it: rd's read of x must not
// reach wr's session, so wr's write of y depends on nothing but itself.
// A thread that ran wr inside rd's hop (before rd's session ended) would
// give y a dependency on x.
func TestInPlaceHopStartsItsOwnSession(t *testing.T) {
	k := vtime.NewKernel(1)
	t.Cleanup(k.Stop)
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(100 * time.Microsecond)})
	kv := anna.NewKVS(k, net, anna.DefaultConfig())
	cacheEP := net.AddNode("cache-vm0")
	ch := cache.New(k, cacheEP, kv.NewClient(cacheEP, 0), "vm0", cache.DefaultConfig(core.MK))
	ch.Start()

	reg := NewRegistry()
	reg.Register("rd", func(ctx *Ctx, _ []any) (any, error) {
		_, _, err := ctx.Get("x")
		return nil, err
	})
	reg.Register("wr", func(ctx *Ctx, _ []any) (any, error) {
		return nil, ctx.Put("y", 1)
	})
	chain := dag.Linear("chain", "rd", "wr")
	ep := net.AddNode("exec-vm0-0")
	th := NewThread(k, ep, "vm0", Deps{
		Cache: ch, Anna: kv.NewClient(ep, 0), Registry: reg,
		DAGFor: func(string) (*dag.DAG, bool) { return chain, true },
	})
	th.Start()
	client := net.AddNode("client-0")
	kc := kv.NewClient(client, 0)
	sched := &core.DAGSchedule{
		ReqID: "r1", DAG: "chain", RespondTo: client.ID(),
		Assignments: []simnet.NodeID{ep.ID(), ep.ID()},
	}

	k.Run("test", func() {
		if err := kc.Put("x", lattice.NewCausal(lattice.VectorClock{"w": 1}, nil, codec.MustEncode(7))); err != nil {
			t.Fatal(err)
		}
		client.Send(ep.ID(), &core.DAGTrigger{Schedule: sched}, 128)
		if res, ok := client.Recv().Payload.(*core.Result); !ok || !res.OK() {
			t.Fatalf("the chain answered %+v, want a result", res)
		}
		ch.FlushWrites()
		l, found, err := kc.Get("y")
		if err != nil || !found {
			t.Fatalf("y: found %v, %v", found, err)
		}
		for key := range l.(*lattice.Causal).Deps() {
			t.Errorf("wr's write of y depends on %s, which only rd read", key)
		}
	})
}
