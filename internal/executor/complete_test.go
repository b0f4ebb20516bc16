package executor

import (
	"math"
	"testing"
	"time"

	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/dag"
	"cloudburst/internal/simnet"
)

// TestCompleteAllocatesOnce pins a request's end at one allocation for
// all its sends: the Result, the DAGDone every cache the session touched
// receives (three here), and the scheduler's RequestComplete share one
// record. The receivers see the one DAGDone pointer.
func TestCompleteAllocatesOnce(t *testing.T) {
	r := newSessionRig(t, core.DSC, dag.Linear("d", "rw"))
	net := r.net
	sched := net.AddNode("sched-0")
	peers := []*simnet.Endpoint{net.AddNode("cache-vm1"), net.AddNode("cache-vm2")}
	var dones []*core.DAGDone
	for _, ep := range append([]*simnet.Endpoint{r.client, sched}, peers...) {
		r.k.Go("sink", func() {
			for {
				if d, ok := ep.Recv().Payload.(*core.DAGDone); ok && len(dones) < cap(dones) {
					dones = append(dones, d)
				}
			}
		})
	}
	meta := core.NewSessionMeta()
	for _, ep := range peers {
		meta.Caches[ep.ID()] = true
	}
	s := &core.DAGSchedule{ReqID: "r1", DAG: "d", RespondTo: r.client.ID(), Scheduler: sched.ID()}
	payload := codec.MustEncode(7)
	calls := 0
	run := func() {
		r.k.Run("complete", func() {
			for i := 0; i < calls; i++ {
				r.th.complete(s, "rw", &meta, 1, nil, "", payload, nil)
				r.k.Sleep(time.Millisecond)
			}
		})
	}
	calls = 50
	run() // warm the pools, the kernel's processes and the inboxes
	base := testing.AllocsPerRun(5, run)
	calls = 100
	got := (testing.AllocsPerRun(5, run) - base) / 50
	t.Logf("complete: %.2f allocations", got)
	if math.Round(got*10)/10 != 1 {
		t.Errorf("complete: %.2f allocations for its five sends, want 1", got)
	}
	dones = make([]*core.DAGDone, 0, 2)
	calls = 1
	run()
	if len(dones) != 2 || dones[0] != dones[1] {
		t.Fatalf("the peer caches received %v, want one DAGDone pointer twice", dones)
	}
}
