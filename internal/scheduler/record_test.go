package scheduler

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"weak"

	"cloudburst/internal/anna"
	"cloudburst/internal/core"
	"cloudburst/internal/dag"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// recordRig is one scheduler whose view holds one executor, exec-0, and
// the one-function DAG "d". The executor sends each request's completion
// notice on receipt unless hold names the request.
type recordRig struct {
	k      *vtime.Kernel
	s      *Scheduler
	client *simnet.Endpoint
	hold   map[string]bool
	got    []string // every request exec-0 received, in order
	// onTrigger sees each DAG attempt's schedule.
	onTrigger func(*core.DAGSchedule)
}

func newRecordRig(t *testing.T, cfg Config) *recordRig {
	t.Helper()
	k := vtime.NewKernel(1)
	t.Cleanup(k.Stop)
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(200 * time.Microsecond)})
	kv := anna.NewKVS(k, net, anna.DefaultConfig())
	ep := net.AddNode("sched-0")
	r := &recordRig{k: k, s: New(k, ep, kv.NewClient(ep, 0), cfg, 0, 1), client: net.AddNode("client-0"), hold: map[string]bool{}}
	r.s.setThreads([]core.ExecutorMetrics{{Thread: "exec-0", VM: "vm-0"}}) // no poll replaces it
	r.s.dags["d"] = dag.Linear("d", "f")
	r.s.Start()
	exec := net.AddNode("exec-0")
	k.Go("exec-0", func() {
		for {
			var id string
			switch b := exec.Recv().Payload.(type) {
			case *core.InvokeRequest:
				id = b.ReqID
			case *core.DAGTrigger:
				id = b.Schedule.ReqID
				if r.onTrigger != nil {
					r.onTrigger(b.Schedule)
				}
			default:
				continue
			}
			r.got = append(r.got, id)
			if !r.hold[id] {
				exec.Send(r.s.ID(), &core.RequestComplete{ReqID: id}, 32)
			}
		}
	})
	return r
}

// TestFinishedRecordKeepsNothingAlive: untrack zeroes a record before it
// waits on the free list, so a finished request's wire form (the
// InvokeRequest or DAGInvokeReq it arrived as) and its DAG schedule are
// garbage.
// Each request's argument array is referenced only through its wire form.
func TestFinishedRecordKeepsNothingAlive(t *testing.T) {
	for _, kind := range []string{"single", "DAG"} {
		t.Run(kind, func(t *testing.T) {
			r := newRecordRig(t, DefaultConfig())
			var args weak.Pointer[core.Arg]
			var sched weak.Pointer[core.DAGSchedule]
			r.onTrigger = func(s *core.DAGSchedule) { sched = weak.Make(s) }
			r.k.Run("test", func() {
				a := []core.Arg{{Val: []byte{1}}}
				args = weak.Make(&a[0])
				var req any = &core.InvokeRequest{ReqID: "req", Function: "f", Args: a, RespondTo: r.client.ID()}
				if kind == "DAG" {
					req = &DAGInvokeReq{ReqID: "req", DAG: "d", Args: []core.FnArgs{{Fn: "f", Args: a}}, RespondTo: r.client.ID()}
				}
				r.client.Send(r.s.ID(), req, 128)
				r.k.Sleep(time.Second)
			})
			if len(r.got) != 1 || len(r.s.inflight) != 0 || r.s.free.Len() != 1 {
				t.Fatalf("%d attempts, %d tracked, %d free records; want 1, 0 and 1", len(r.got), len(r.s.inflight), r.s.free.Len())
			}
			if o, _ := r.s.free.Get(); !reflect.ValueOf(*o).IsZero() {
				t.Errorf("the free record is not zeroed: %+v", *o)
			}
			runtime.GC()
			if args.Value() != nil {
				t.Error("the finished request's arguments are still reachable")
			}
			if kind == "DAG" && sched.Value() != nil {
				t.Error("the finished request's schedule is still reachable")
			}
		})
	}
}

// TestFreeRecordsBoundedAtQuiescence admits a burst of requests that are
// all in flight at once, more than the free list keeps, then a second
// burst that takes its records from the list: at quiescence nothing is
// tracked and the list holds exactly its bound of zeroed records.
func TestFreeRecordsBoundedAtQuiescence(t *testing.T) {
	r := newRecordRig(t, DefaultConfig())
	const burst = freeRecords + 36
	r.k.Run("test", func() {
		for round := 0; round < 2; round++ {
			for i := 0; i < burst; i++ {
				id := fmt.Sprintf("r%d", round*burst+i)
				r.client.Send(r.s.ID(), &core.InvokeRequest{ReqID: id, Function: "f", RespondTo: r.client.ID()}, 128)
			}
			r.k.Sleep(300 * time.Microsecond) // admitted; no notice has landed
			if len(r.s.inflight) != burst {
				t.Fatalf("%d tracked at once, want all %d", len(r.s.inflight), burst)
			}
			r.k.Sleep(time.Second)
		}
	})
	if len(r.got) != 2*burst || len(r.s.inflight) != 0 {
		t.Fatalf("%d attempts, %d tracked; want %d and 0", len(r.got), len(r.s.inflight), 2*burst)
	}
	if r.s.free.Len() != freeRecords {
		t.Fatalf("%d free records at quiescence, want the bound %d", r.s.free.Len(), freeRecords)
	}
	for i := 0; i < freeRecords; i++ {
		if o, _ := r.s.free.Get(); !reflect.ValueOf(*o).IsZero() {
			t.Fatalf("free record %d is not zeroed: %+v", i, *o)
		}
	}
}

// TestDeadlineWatcherLeavesReusedRecordAlone: a short-deadline request's
// watcher sleeps until that deadline, after the request finished and its
// record went to the next request. The watcher looks its request up by
// id, so the next request keeps the global timeout: at 70 s, ten seconds
// past its own deadline and before the retry scan's 75 s tick, it is
// neither extended nor re-executed.
func TestDeadlineWatcherLeavesReusedRecordAlone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DAGTimeout = time.Minute
	r := newRecordRig(t, cfg)
	r.hold["b"] = true
	r.k.Run("test", func() {
		r.client.Send(r.s.ID(), &core.InvokeRequest{ReqID: "a", Function: "f", RespondTo: r.client.ID(), Deadline: time.Second}, 128)
		r.k.Sleep(10 * time.Millisecond)
		if len(r.s.inflight) != 0 || r.s.free.Len() != 1 {
			t.Fatalf("after a: %d tracked, %d free records; want 0 and 1", len(r.s.inflight), r.s.free.Len())
		}
		rec, _ := r.s.free.Get()
		r.s.free.Put(rec)
		r.client.Send(r.s.ID(), &core.InvokeRequest{ReqID: "b", Function: "f", RespondTo: r.client.ID()}, 128)
		r.k.Sleep(10 * time.Millisecond)
		if r.s.inflight["b"] != rec {
			t.Fatal("b did not take a's record")
		}
		deadline := rec.deadline
		r.k.Sleep(vtime.Time(70 * time.Second).Sub(r.k.Now()))
		if rec.id != "b" || rec.deadline != deadline || rec.aliveExtends != 0 || rec.retries != 0 || r.s.Reexecutions() != 0 {
			t.Errorf("b's record: id %q, deadline moved by %v, %d extensions, %d retries, %d re-executions; want b untouched",
				rec.id, rec.deadline.Sub(deadline), rec.aliveExtends, rec.retries, r.s.Reexecutions())
		}
	})
	if len(r.got) != 2 {
		t.Errorf("exec-0 received %v, want a and b once each", r.got)
	}
}
