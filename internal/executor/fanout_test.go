package executor

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/cache"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/trace"
	"cloudburst/internal/vtime"
)

// fanRig is one thread and its VM's cache over Anna, with
// keys k0..k<n-1> preloaded and cached, for scripting what happens
// around resolveArgs' reads of them as references. The scripts call
// resolveArgs from their own process, so they decide what else is
// runnable at the fan-out instant; the thread's worker is started only
// to serve whole invocations.
type fanRig struct {
	k   *vtime.Kernel
	ch  *cache.Cache
	th  *Thread
	col *trace.Collector
	ep  *simnet.Endpoint // another node: a stand-in Anna that pushes updates, or a client
	log []string
	t0  vtime.Time // the scripted call's start, the origin of logged instants
	n   int        // keys k0..k<n-1>
}

func (r *fanRig) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

func (r *fanRig) at() time.Duration { return r.k.Now().Sub(r.t0) }

// OnRead logs what each reference read: when, and which version.
func (r *fanRig) OnRead(ev TraceEvent) {
	ver := fmt.Sprint(ev.Ver.TS.Clock)
	if ev.Ver.VC.Len() != 0 {
		ver = fmt.Sprintf("%x", ev.Ver.VCD)
	}
	r.logf("read %s at %v version %s", ev.Key, r.at(), ver)
}

func (r *fanRig) OnWrite(TraceEvent) {}

func newFanRig(t *testing.T, mode core.Mode, n int) *fanRig {
	t.Helper()
	r := &fanRig{k: vtime.NewKernel(1), col: trace.New(), n: n}
	t.Cleanup(r.k.Stop)
	net := simnet.New(r.k, simnet.Link{Latency: simnet.Constant(100 * time.Microsecond)})
	kv := anna.NewKVS(r.k, net, anna.DefaultConfig())
	cacheEP := net.AddNode("cache-vm0")
	cfg := cache.DefaultConfig(mode)
	cfg.Trace = r.col
	r.ch = cache.New(r.k, cacheEP, kv.NewClient(cacheEP, 0), "vm0", cfg)
	r.ch.Start()
	ep := net.AddNode("exec-vm0-0")
	reg := NewRegistry()
	reg.Register("f", func(_ *Ctx, args []any) (any, error) { return len(args), nil })
	r.th = NewThread(r.k, ep, "vm0", Deps{Cache: r.ch, Anna: kv.NewClient(ep, 0), Registry: reg, Tracer: r, Trace: r.col})
	r.ep = net.AddNode("pusher")
	for i := range n {
		kv.Preload(fmt.Sprintf("k%d", i), r.capsule(int64(i+1), i))
	}
	r.k.Run("warm", func() { r.resolve(t, "warm") })
	r.log = nil
	return r
}

// capsule is value v at LWW clock ts, or the causal capsule of the
// write "w":ts in the causal modes.
func (r *fanRig) capsule(ts int64, v int) lattice.Lattice {
	payload := codec.MustEncode(v)
	if r.ch.Mode().Causal() {
		return lattice.NewCausal(lattice.VectorClock{"w": uint64(ts)}, nil, payload)
	}
	return lattice.NewLWW(lattice.Timestamp{Clock: ts}, payload)
}

// refs is k0..k<n-1> as reference arguments.
func (r *fanRig) refs() []core.Arg {
	args := make([]core.Arg, r.n)
	for i := range args {
		args[i] = core.Arg{Ref: fmt.Sprintf("k%d", i)}
	}
	return args
}

// resolve reads the rig's keys as one call's reference arguments under
// its own trace, and logs each cache/read span and each decoded value.
func (r *fanRig) resolve(t *testing.T, reqID string) {
	t.Helper()
	var meta *core.SessionMeta
	if r.ch.Mode().Causal() {
		meta = r.th.ownSession()
		defer r.th.endSession()
	}
	r.t0 = r.k.Now()
	r.col.Root(reqID, "req", r.t0)
	out, err := r.th.resolveArgs(reqID, "f", r.refs(), nil, meta)
	if err != nil {
		t.Fatal(err)
	}
	r.logf("resolved %v at %v", out, r.at())
	r.col.Finish(reqID, r.k.Now())
	done := r.col.Done()
	for _, sp := range done[len(done)-1].Spans[1:] {
		r.logf("span %s %v-%v under %d", sp.Name, sp.Start.Sub(r.t0), sp.End.Sub(r.t0), sp.Parent)
	}
}

// check compares the rig's log with want, line by line.
func (r *fanRig) check(t *testing.T, want string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(want), "\n")
	for i := range lines {
		lines[i] = strings.TrimSpace(lines[i])
	}
	if got, want := strings.Join(r.log, "\n"), strings.Join(lines, "\n"); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

// The scripts below hold resolveArgs' reads of four cached references to
// what the per-key path does, each reference on its own reader process
// with its own IPC hop: the instant and version of every read, the order
// of events around the hop, and every span, recorded by running these
// scripts on that path. In the LWW modes one hop serves every resident
// key.

// TestRefFanOutAlone: nothing else is runnable, so the thread sleeps the
// one hop itself, and reads the four keys at its end.
func TestRefFanOutAlone(t *testing.T) {
	r := newFanRig(t, core.LWW, 4)
	r.k.Run("script", func() { r.resolve(t, "a") })
	r.check(t, `
		read k0 at 50µs version 1
		read k1 at 50µs version 2
		read k2 at 50µs version 3
		read k3 at 50µs version 4
		resolved [0 1 2 3] at 50µs
		span cache/read 0s-50µs under 0
		span cache/read 0s-50µs under 0
		span cache/read 0s-50µs under 0
		span cache/read 0s-50µs under 0
	`)
}

// TestRefFanOutBehindRunnable: a writer is runnable at the fan-out
// instant, so the thread yields to it; the write's hop ends at the read
// hop's instant with an earlier timer, so k1 reads the write.
func TestRefFanOutBehindRunnable(t *testing.T) {
	r := newFanRig(t, core.LWW, 4)
	r.k.Run("script", func() {
		r.k.Go("writer", func() {
			if _, err := r.ch.Write("w", "k1", codec.MustEncode(100), nil, "writer"); err != nil {
				t.Error(err)
			}
			r.logf("wrote k1 at %v", r.at())
		})
		r.resolve(t, "b")
	})
	r.check(t, `
		wrote k1 at 50µs
		read k0 at 50µs version 1
		read k1 at 50µs version 375168
		read k2 at 50µs version 3
		read k3 at 50µs version 4
		resolved [0 100 2 3] at 50µs
		span cache/read 0s-50µs under 0
		span cache/read 0s-50µs under 0
		span cache/read 0s-50µs under 0
		span cache/read 0s-50µs under 0
	`)
}

// TestRefFanOutEvictedDuringHop: k2 leaves the cache at the hop's end,
// by a timer set before the fan-out, so k2 is read from Anna and k3 is
// read where the per-key path read it.
func TestRefFanOutEvictedDuringHop(t *testing.T) {
	r := newFanRig(t, core.LWW, 4)
	r.k.Run("script", func() { r.evictAtHop(t, "c") })
	r.check(t, `
		evicted k2 at 50µs
		read k0 at 50µs version 1
		read k1 at 50µs version 2
		read k3 at 50µs version 4
		read k2 at 275.056µs version 3
		resolved [0 1 2 3] at 275.056µs
		span cache/read 0s-50µs under 0
		span cache/read 0s-50µs under 0
		span cache/read 0s-275.056µs under 0
		span cache/read 0s-50µs under 0
		span anna/get 50µs-275.056µs under 3
	`)
}

// TestRefFanOutColdPrefetch: no key is cached, so the grouped fetch
// takes a round trip to Anna before the reads, and records it as the
// call's exec/prefetch span; the reads then hit.
func TestRefFanOutColdPrefetch(t *testing.T) {
	r := newFanRig(t, core.LWW, 4)
	for i := range r.n {
		r.ch.Evict(fmt.Sprintf("k%d", i))
	}
	r.k.Run("script", func() { r.resolve(t, "cold") })
	r.check(t, `
		read k0 at 325.168µs version 1
		read k1 at 325.168µs version 2
		read k2 at 325.168µs version 3
		read k3 at 325.168µs version 4
		resolved [0 1 2 3] at 325.168µs
		span exec/prefetch 0s-275.168µs under 0
		span cache/read 275.168µs-325.168µs under 0
		span cache/read 275.168µs-325.168µs under 0
		span cache/read 275.168µs-325.168µs under 0
		span cache/read 275.168µs-325.168µs under 0
	`)
}

// evictAtHop evicts k2 at the end of the read hop of a call started now,
// by a timer set before the call, and resolves the call.
func (r *fanRig) evictAtHop(t *testing.T, reqID string) {
	r.k.Go("evictor", func() {
		r.k.Sleep(r.ch.IPC())
		r.ch.Evict("k2")
		r.logf("evicted k2 at %v", r.at())
	})
	r.k.YieldNow() // the evictor sets its timer; nothing is runnable then
	r.resolve(t, reqID)
}

// TestRefFanOutPushAtHop: an update Anna pushed before the fan-out
// arrives at the hop's end, so k1 reads the pushed version.
func TestRefFanOutPushAtHop(t *testing.T) {
	r := newFanRig(t, core.LWW, 4)
	r.k.Run("script", func() {
		r.ep.Send(r.ch.ID(), &anna.KeyUpdatePush{Key: "k1", Lat: r.capsule(50, 50)}, 64)
		r.k.Sleep(100*time.Microsecond - r.ch.IPC()) // the push lands as the hop ends
		r.resolve(t, "d")
	})
	r.check(t, `
		read k0 at 50µs version 1
		read k1 at 50µs version 50
		read k2 at 50µs version 3
		read k3 at 50µs version 4
		resolved [0 50 2 3] at 50µs
		span cache/read 0s-50µs under 0
		span cache/read 0s-50µs under 0
		span cache/read 0s-50µs under 0
		span cache/read 0s-50µs under 0
	`)
}

// TestRefFanOutCausalPerKey: under DSC every reference keeps its own
// reader and hop, so the eviction script of TestRefFanOutEvictedDuringHop
// reads the same way it did, with the kernel's work it took.
func TestRefFanOutCausalPerKey(t *testing.T) {
	r := newFanRig(t, core.DSC, 4)
	before := r.k.Stats()
	r.k.Run("script", func() { r.evictAtHop(t, "e") })
	s := r.k.Stats()
	r.logf("%d dispatches, %d timer fires", s.Dispatches-before.Dispatches, s.TimerFires-before.TimerFires)
	r.check(t, `
		evicted k2 at 50µs
		read k0 at 50µs version 693d4bd01e05b87c
		read k1 at 50µs version 57a49e2213dd60e4
		read k3 at 50µs version f74cb185b7f19bee
		read k2 at 275.059µs version e5aaed240dda3c6c
		resolved [0 1 2 3] at 275.059µs
		span cache/read 0s-50µs under 0
		span cache/read 0s-50µs under 0
		span cache/read 0s-275.059µs under 0
		span cache/read 0s-50µs under 0
		span anna/get 50µs-275.059µs under 3
		16 dispatches, 8 timer fires
	`)
}

// TestRefFanOutCounts pins the kernel's work for one warm invocation of
// a function whose ten arguments are cached references, LWW, from the
// client's send to its result. The ten reads take one IPC hop; one
// reader process per reference, each sleeping its own hop, took 25
// dispatches and 14 timer fires. A dispatch or a timer more per
// invocation fails it.
func TestRefFanOutCounts(t *testing.T) {
	r := newFanRig(t, core.LWW, 10)
	r.th.Start()
	var d, f int64
	r.k.Run("client", func() {
		for _, id := range []string{"warm-2", "counted"} {
			before := r.k.Stats()
			r.ep.Send(r.th.ID(), &core.InvokeRequest{ReqID: id, Function: "f", Args: r.refs(), RespondTo: r.ep.ID()}, 128)
			for {
				if res, ok := r.ep.Recv().Payload.(*core.Result); ok {
					if !res.OK() {
						t.Fatalf("%s: %s", id, res.Err)
					}
					break
				}
			}
			s := r.k.Stats()
			d, f = s.Dispatches-before.Dispatches, s.TimerFires-before.TimerFires
		}
	})
	if d != 5 || f != 5 {
		t.Fatalf("%d dispatches and %d timer fires per invocation, want 5 and 5", d, f)
	}
}
