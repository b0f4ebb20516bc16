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
			chain := dag.NewIndex(*dag.Linear("chain", "a", "b", "c"))
			ep := net.AddNode("exec-vm0-0")
			th := NewThread(k, ep, "vm0", Deps{
				Cache: ch, Anna: kv.NewClient(ep, 0), Registry: reg,
				DAGFor: func(string) (*dag.Index, bool) { return chain, true },
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

// routingDAGs returns the fixed shapes (chain, fan-out, fan-in, diamond)
// and n seeded random DAGs whose edges run from lower to higher
// declaration index. Every DAG declares its functions out of name order,
// so a position table that fell back to declaration order, or a name
// table to positions, would show.
func routingDAGs(rng *rand.Rand, n int) []*dag.DAG {
	ds := []*dag.DAG{
		dag.Linear("chain", "c", "b", "a"),
		dag.New("fan-out", []string{"z", "b", "a"}, [][2]string{{"z", "b"}, {"z", "a"}}),
		dag.New("fan-in", []string{"d", "c", "b", "a"}, [][2]string{{"c", "a"}, {"d", "a"}, {"b", "a"}}),
		dag.New("diamond", []string{"d", "b", "c", "a"}, [][2]string{{"d", "b"}, {"d", "c"}, {"b", "a"}, {"c", "a"}}),
	}
	for i := 0; i < n; i++ {
		k := rng.Intn(6) + 1
		fns := make([]string, k)
		for j, p := range rng.Perm(k) {
			fns[j] = string(rune('a' + p))
		}
		var edges [][2]string
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, [2]string{fns[a], fns[b]})
				}
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		ds = append(ds, dag.New(fmt.Sprintf("rnd-%d", i), fns, edges))
	}
	return ds
}

// TestPositionRoutingMatchesNameOracle runs seeded random DAGs over four
// threads from a position-indexed schedule and holds every hop to a
// name-keyed oracle: each function runs once, on the thread a
// name→thread map gives it (so every child trigger went there), with its
// own client arguments first and then its parents' results in
// parent-name order, and every sink answers the client. A schedule whose
// function count is not the resolved DAG's fails with an error.
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
	dags := routingDAGs(rng, 200)
	index := map[string]*dag.Index{}
	for _, d := range dags {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		index[d.Name] = dag.NewIndex(*d)
	}
	var threads []simnet.NodeID
	for i := 0; i < 4; i++ {
		ep := net.AddNode(simnet.NodeID(fmt.Sprintf("exec-vm0-%d", i)))
		th := NewThread(k, ep, "vm0", Deps{
			Cache: ch, Anna: kv.NewClient(ep, 0), Registry: reg,
			DAGFor: func(name string) (*dag.Index, bool) { x, ok := index[name]; return x, ok },
		})
		th.Start()
		threads = append(threads, ep.ID())
	}
	client := net.AddNode("client-0")

	fanIn, fanOut := 0, 0
	k.Run("test", func() {
		for n, d := range dags {
			// The oracle, by name: a thread and maybe client arguments for
			// each function.
			owner := map[string]simnet.NodeID{}
			clientArg := map[string]string{}
			var args []core.FnArgs
			for _, f := range d.Functions {
				owner[f] = threads[rng.Intn(len(threads))]
				if rng.Intn(2) == 0 {
					clientArg[f] = "arg-" + f
					args = append(args, core.FnArgs{Fn: f, Args: []core.Arg{{Val: codec.MustEncode(clientArg[f])}}})
				}
				if len(d.Parents(f)) > 1 {
					fanIn++
				}
				if len(d.Children(f)) > 1 {
					fanOut++
				}
			}
			core.SortFnArgs(args)
			// The position-indexed schedule the scheduler would build.
			sched := &core.DAGSchedule{ReqID: fmt.Sprintf("r%d", n), DAG: d.Name, RespondTo: client.ID(), Args: args}
			for _, f := range d.Functions {
				sched.Assignments = append(sched.Assignments, owner[f])
			}
			clear(ran)
			x := index[d.Name]
			for _, src := range x.Sources() {
				client.Send(sched.Assignments[src], &core.DAGTrigger{Schedule: sched, Target: src}, 128)
			}
			for range sinks(d) {
				if res := client.Recv().Payload.(*core.Result); !res.OK() || res.ReqID != sched.ReqID {
					t.Fatalf("%s %v: result %+v", d.Name, d.Edges, res)
				}
			}
			for _, f := range d.Functions {
				var want []string
				if a, ok := clientArg[f]; ok {
					want = append(want, a)
				}
				want = append(want, d.Parents(f)...)
				if got := ran[f]; len(got) != 1 || got[0].thread != owner[f] || !slices.Equal(got[0].args, want) {
					t.Fatalf("%s %v: %s ran %+v, want once on %s with %v", d.Name, d.Edges, f, got, owner[f], want)
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
	if fanIn < 50 || fanOut < 50 {
		t.Fatalf("coverage: %d fan-in and %d fan-out vertices, want 50 of each", fanIn, fanOut)
	}
}

// sinks returns d's functions with no children.
func sinks(d *dag.DAG) []string {
	var out []string
	for _, f := range d.Functions {
		if len(d.Children(f)) == 0 {
			out = append(out, f)
		}
	}
	return out
}
