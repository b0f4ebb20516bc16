package executor

import (
	"testing"
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/cache"
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
				Assignments: map[string]simnet.NodeID{"a": ep.ID(), "b": ep.ID(), "c": sink.ID()},
			}

			k.Run("test", func() {
				client.Send(ep.ID(), core.DAGTrigger{Schedule: sched, Target: "a"}, 128)
				tr, ok := sink.Recv().Payload.(core.DAGTrigger)
				if !ok || tr.Target != "c" {
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
