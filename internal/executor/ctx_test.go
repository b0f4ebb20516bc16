package executor

import (
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"cloudburst/internal/anna"
	"cloudburst/internal/cache"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/dag"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// writeLog is an audit tracer that keeps each request's write ids.
type writeLog map[string][]string

func (w writeLog) OnRead(TraceEvent)     {}
func (w writeLog) OnWrite(ev TraceEvent) { w[ev.ReqID] = append(w[ev.ReqID], ev.WriteID) }

// ctxSeen is what one invocation found in its Ctx. Its session and
// transaction are held weakly, so that the test can see them collected.
type ctxSeen struct {
	id, req   string
	meta, own bool // a session, and whether it is the thread's own
	txn       bool
	recv      int                            // messages Recv returned
	session   weak.Pointer[core.SessionMeta] // unless the thread's own
	tx        weak.Pointer[txnState]
}

// TestCtxStartsCleanOnReusedThread runs two invocations back to back on
// one thread, which hands both the same Ctx: first a one-function DAG
// (transactional under TXN), then a bare invocation. Each invocation
// receives one inbox message, identical in both inboxes, and puts two
// keys. The second must start clean: its own id, request and session
// (the thread's own under DSC, none under TXN), no transaction, write ids
// counted from /w1, and an empty inbox dedup set, so it receives its
// message too. Once each returns, its Ctx keeps nothing alive: the DAG
// hop's session (under DSC) and transaction (under TXN) are garbage before
// the next request arrives, and the bare invocation's argument, decoded
// into the thread's argument slice, is garbage at the end (four ints: a
// smaller array could share a tiny allocation block with a live object and
// so outlive its last reference).
func TestCtxStartsCleanOnReusedThread(t *testing.T) {
	for _, mode := range []core.Mode{core.DSC, core.TXN} {
		t.Run(mode.String(), func(t *testing.T) {
			k := vtime.NewKernel(1)
			t.Cleanup(k.Stop)
			net := simnet.New(k, simnet.Link{Latency: simnet.Constant(100 * time.Microsecond)})
			kv := anna.NewKVS(k, net, anna.DefaultConfig())
			cacheEP := net.AddNode("cache-vm0")
			ch := cache.New(k, cacheEP, kv.NewClient(cacheEP, 0), "vm0", cache.DefaultConfig(mode))
			ch.Start()
			var (
				th   *Thread
				seen []ctxSeen
				arg  weak.Pointer[float64]
			)
			reg := NewRegistry()
			reg.Register("f", func(ctx *Ctx, args []any) (any, error) {
				if len(args) == 1 {
					arg = weak.Make(&args[0].([]float64)[0])
				}
				s := ctxSeen{
					id: ctx.ID(), req: ctx.req, meta: ctx.meta != nil, own: ctx.meta == &th.session,
					txn: ctx.txn != nil, tx: weak.Make(ctx.txn),
				}
				if !s.own {
					s.session = weak.Make(ctx.meta)
				}
				msgs, err := ctx.Recv()
				if err != nil {
					return nil, err
				}
				s.recv = len(msgs)
				seen = append(seen, s)
				for _, key := range []string{"a", "b"} {
					if err := ctx.Put(key, 1); err != nil {
						return nil, err
					}
				}
				return 0, nil
			})
			one := dag.Linear("one", "f")
			ep := net.AddNode("exec-vm0-0")
			writes := writeLog{}
			th = NewThread(k, ep, "vm0", Deps{
				Cache: ch, Anna: kv.NewClient(ep, 0), Registry: reg, Tracer: writes, TxnRing: kv.Ring(),
				DAGFor: func(string) (*dag.DAG, bool) { return one, true },
			})
			th.Start()
			client := net.AddNode("client-0")
			k.Run("test", func() {
				kc := kv.NewClient(client, 0)
				msg := lattice.NewSet("peer#1\x00" + string(codec.MustEncode("hi")))
				for seq := int64(1); seq <= 2; seq++ {
					if err := kc.Put(core.InboxKey(core.MakeInvocationID(th.ID(), seq)), msg); err != nil {
						t.Fatal(err)
					}
				}
				sched := &core.DAGSchedule{
					ReqID: "r1", DAG: "one", RespondTo: client.ID(),
					Assignments: []simnet.NodeID{th.ID()}, Txn: mode == core.TXN,
				}
				for _, req := range []any{
					&core.DAGTrigger{Schedule: sched},
					&core.InvokeRequest{ReqID: "r2", Function: "f", RespondTo: client.ID(), Args: []core.Arg{{Val: codec.MustEncode([]float64{7, 7, 7, 7})}}},
				} {
					client.Send(th.ID(), req, 128)
					for {
						if res, ok := client.Recv().Payload.(*core.Result); ok {
							if !res.OK() {
								t.Fatalf("%s: %s", res.ReqID, res.Err)
							}
							break
						}
					}
					runtime.GC()
					if s := seen[len(seen)-1]; s.session.Value() != nil || s.tx.Value() != nil {
						t.Errorf("%s: the thread keeps a returned call's session or transaction", s.req)
					}
				}
			})
			if len(seen) != 2 {
				t.Fatalf("%d invocations ran, want 2", len(seen))
			}
			first, second := seen[0], seen[1]
			for i, s := range seen {
				if want := core.MakeInvocationID(th.ID(), int64(i+1)); s.id != want {
					t.Errorf("invocation %d: ID %q, want %q", i+1, s.id, want)
				}
				if s.recv != 1 {
					t.Errorf("invocation %d: Recv returned %d messages, want 1", i+1, s.recv)
				}
				want := []string{s.id + "/w1", s.id + "/w2"}
				if got := slices.Sorted(slices.Values(writes[s.req])); !slices.Equal(got, want) {
					t.Errorf("invocation %d: write ids %v, want %v", i+1, got, want)
				}
			}
			if first.req != "r1" || second.req != "r2" {
				t.Errorf("requests %q and %q, want r1 and r2", first.req, second.req)
			}
			// Under DSC the DAG's session is its trigger's, not the thread's,
			// and a bare invocation's is the thread's; TXN keeps none.
			dsc := mode == core.DSC
			if first.meta != dsc || first.own || second.meta != dsc || second.own != dsc {
				t.Errorf("sessions (present, thread's own): %v %v, then %v %v; want %v false, then %v %v",
					first.meta, first.own, second.meta, second.own, dsc, dsc, dsc)
			}
			if first.txn != (mode == core.TXN) || second.txn {
				t.Errorf("transactions %v and %v, want %v and false", first.txn, second.txn, mode == core.TXN)
			}
			runtime.GC()
			if arg.Value() != nil || len(th.args) == 0 {
				t.Errorf("the thread's argument slice (length %d) keeps a returned call's argument", len(th.args))
			}
		})
	}
}
