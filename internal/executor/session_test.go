package executor

import (
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

// sessionRig is one thread on one VM whose functions record the size of
// the session they start under.
type sessionRig struct {
	k      *vtime.Kernel
	net    *simnet.Network
	kv     *anna.KVS
	ch     *cache.Cache
	th     *Thread
	client *simnet.Endpoint
	// started is each invocation's read-set and dependency count at
	// entry, in order.
	started []int
}

func newSessionRig(t *testing.T, mode core.Mode, d *dag.DAG) *sessionRig {
	t.Helper()
	r := &sessionRig{k: vtime.NewKernel(1)}
	t.Cleanup(r.k.Stop)
	net := simnet.New(r.k, simnet.Link{Latency: simnet.Constant(100 * time.Microsecond)})
	r.net = net
	r.kv = anna.NewKVS(r.k, net, anna.DefaultConfig())
	cacheEP := net.AddNode("cache-vm0")
	r.ch = cache.New(r.k, cacheEP, r.kv.NewClient(cacheEP, 0), "vm0", cache.DefaultConfig(mode))
	r.ch.Start()
	reg := NewRegistry()
	// rw reads or writes the key its arguments name: ("get", k) or
	// ("put", k).
	reg.Register("rw", func(ctx *Ctx, args []any) (any, error) {
		r.started = append(r.started, len(ctx.meta.ReadSet)+len(ctx.meta.Deps))
		op, key := args[0].(string), args[1].(string)
		if op == "put" {
			return 0, ctx.Put(key, 1)
		}
		_, _, err := ctx.Get(key)
		return 0, err
	})
	ep := net.AddNode("exec-vm0-0")
	r.th = NewThread(r.k, ep, "vm0", Deps{
		Cache: r.ch, Anna: r.kv.NewClient(ep, 0), Registry: reg,
		DAGFor: func(string) (*dag.DAG, bool) { return d, true },
	})
	r.th.Start()
	r.client = net.AddNode("client-0")
	return r
}

func rwArgs(op, key string) []core.Arg {
	return []core.Arg{{Val: codec.MustEncode(op)}, {Val: codec.MustEncode(key)}}
}

// result waits for reqID's Result, passing over completion notices.
func (r *sessionRig) result(t *testing.T, reqID string) *core.Result {
	t.Helper()
	for {
		if res, ok := r.client.Recv().Payload.(*core.Result); ok {
			if res.ReqID != reqID {
				t.Fatalf("result for %q, want %q", res.ReqID, reqID)
			}
			return res
		}
	}
}

// TestBareSessionEndsWithItsInvocation runs two bare DSC invocations on
// one thread. The first reads k; its DAGDone ends its snapshot, and k
// is then evicted. The second reads k too: its session starts empty, so
// the read is a first read that refills from Anna, not a check against
// the first invocation's read set, which would ask the cache for a
// snapshot the second request never took and fail.
func TestBareSessionEndsWithItsInvocation(t *testing.T) {
	r := newSessionRig(t, core.DSC, dag.Linear("unused", "rw"))
	r.k.Run("test", func() {
		r.kv.NewClient(r.client, 0).Put("k", lattice.NewCausal(lattice.VectorClock{"w": 1}, nil, codec.MustEncode(7)))
		for i, id := range []string{"r1", "r2"} {
			if i == 1 {
				r.k.Sleep(time.Millisecond) // r1's DAGDone reaches the cache
				if r.ch.SnapshotCount() != 0 {
					t.Fatalf("%d snapshot tables after r1's DAGDone, want 0", r.ch.SnapshotCount())
				}
				r.ch.Evict("k")
			}
			r.client.Send(r.th.ID(), &core.InvokeRequest{ReqID: id, Function: "rw", Args: rwArgs("get", "k"), RespondTo: r.client.ID()}, 128)
			if res := r.result(t, id); !res.OK() {
				t.Fatalf("%s: %s", id, res.Err)
			}
		}
	})
	if len(r.started) != 2 || r.started[0] != 0 || r.started[1] != 0 {
		t.Fatalf("sessions started with %v keys, want [0 0]", r.started)
	}
	if s := r.ch.Stats; s.UpstreamFetch != 0 || s.Misses != 2 {
		t.Fatalf("cache: %d upstream fetches and %d misses, want 0 and 2 (two fresh reads)", s.UpstreamFetch, s.Misses)
	}
}

// TestMKHopSessionEndsWithItsHop runs two requests of a one-function DAG
// on one thread under MK, where a function's session is its own. The
// first reads x; the second writes y, which depends on everything its
// session read. Its session starts empty, so y carries no dependency on
// the first request's x.
func TestMKHopSessionEndsWithItsHop(t *testing.T) {
	d := dag.Linear("hop", "rw")
	r := newSessionRig(t, core.MK, d)
	r.k.Run("test", func() {
		kc := r.kv.NewClient(r.client, 0)
		kc.Put("x", lattice.NewCausal(lattice.VectorClock{"w": 1}, nil, codec.MustEncode(7)))
		for _, req := range []struct{ id, op, key string }{{"r1", "get", "x"}, {"r2", "put", "y"}} {
			sched := &core.DAGSchedule{
				ReqID: req.id, DAG: d.Name, RespondTo: r.client.ID(),
				Assignments: []simnet.NodeID{r.th.ID()},
				Args:        []core.FnArgs{{Fn: "rw", Args: rwArgs(req.op, req.key)}},
			}
			r.client.Send(r.th.ID(), &core.DAGTrigger{Schedule: sched}, 128)
			if res := r.result(t, req.id); !res.OK() {
				t.Fatalf("%s: %s", req.id, res.Err)
			}
		}
		r.ch.FlushWrites()
		lat, found, err := kc.Get("y")
		if err != nil || !found {
			t.Fatalf("y: found %v, %v", found, err)
		}
		for dk := range lat.(*lattice.Causal).Deps() {
			t.Errorf("y depends on %q, read by an earlier request", dk)
		}
	})
	if len(r.started) != 2 || r.started[0] != 0 || r.started[1] != 0 {
		t.Fatalf("sessions started with %v keys, want [0 0]", r.started)
	}
}
