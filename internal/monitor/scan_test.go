package monitor

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/executor"
	"cloudburst/internal/lattice"
	"cloudburst/internal/scheduler"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// registrySnapshot is one state of the two metric registries in Anna,
// with the policy inputs a refresh over it must produce.
type registrySnapshot struct {
	live        []simnet.NodeID
	caps        map[string]lattice.Lattice
	wantMetrics map[simnet.NodeID]core.ExecutorMetrics
	wantPins    map[string][]simnet.NodeID
	wantCalls   map[string]int64
	wantDone    map[string]int64
}

// newRegistrySnapshot publishes 3 VMs × 4 threads, of which vm2 is dead
// (its reports are ghosts the pool no longer lists), an executor-registry
// member with no capsule, one holding a Set and one whose payload is not
// ExecutorMetrics; and 3 schedulers' counters, one with an empty "done/"
// entry. The wanted inputs are computed here in map form: live threads'
// reports, each function's live pinned threads ascending, and the
// counters summed.
func newRegistrySnapshot() registrySnapshot {
	s := registrySnapshot{
		caps:        make(map[string]lattice.Lattice),
		wantMetrics: make(map[simnet.NodeID]core.ExecutorMetrics),
		wantPins:    make(map[string][]simnet.NodeID),
		wantCalls:   make(map[string]int64),
		wantDone:    make(map[string]int64),
	}
	put := func(key string, ts int64, v any) {
		s.caps[key] = lattice.NewLWW(lattice.Timestamp{Clock: ts, Node: 1}, codec.MustEncode(v))
	}
	var execList []string
	for vm := 0; vm < 3; vm++ {
		for i := 0; i < 4; i++ {
			id := simnet.NodeID(fmt.Sprintf("exec-vm%d-%d", vm, i))
			em := core.ExecutorMetrics{
				Thread: id, VM: fmt.Sprintf("vm%d", vm), Utilization: float64(vm*4+i) / 20,
				Pinned: []string{fmt.Sprintf("f%d", i%3)}, AvgLatencyS: 0.01 * float64(i+1),
			}
			if i == 0 {
				em.Pinned = append(em.Pinned, "hot")
			}
			key := core.ExecMetricsKey(string(id))
			execList = append(execList, key)
			put(key, int64(10+vm*4+i), em)
			if vm == 2 {
				continue // a ghost: reported, but not in the pool
			}
			s.live = append(s.live, id)
			s.wantMetrics[id] = em
			for _, fn := range em.Pinned {
				s.wantPins[fn] = append(s.wantPins[fn], id)
			}
		}
	}
	for _, ghost := range []string{"exec-gone-0", "exec-set-0", "exec-odd-0"} {
		execList = append(execList, core.ExecMetricsKey(ghost))
	}
	s.caps[core.ExecMetricsKey("exec-set-0")] = lattice.NewSet("x")
	put(core.ExecMetricsKey("exec-odd-0"), 1, core.CacheMetrics{VM: "vm9"})
	s.caps[executor.MetricListKey] = lattice.NewSet(execList...)

	var schedList []string
	for i := 0; i < 3; i++ {
		sm := core.SchedulerMetrics{
			Scheduler: simnet.NodeID(fmt.Sprintf("sched-%d", i)),
			DAGCalls:  map[string]int64{"d0": int64(i + 1), "d1": int64(10 * i)},
			FnCalls:   map[string]int64{"done/d0": int64(i), "f0": 5, "done/": 9},
		}
		key := core.SchedMetricsKey(string(sm.Scheduler))
		schedList = append(schedList, key)
		put(key, int64(100+i), sm)
		for d, n := range sm.DAGCalls {
			s.wantCalls[d] += n
		}
		s.wantDone["d0"] += int64(i)
	}
	s.caps[scheduler.SchedListKey] = lattice.NewSet(schedList...)
	return s
}

// TestScanIsShardCountInvariant reads one registry state: the refresh
// must produce the map-form policy inputs, and a scheduler capsule that
// vanishes between ticks must drop out of the next tick's counters. The
// monitor reads every registry on its one endpoint, so the shards=1 arm
// is the whole test; the name and the arm are those it had when the
// scan could be split across scanner endpoints.
func TestScanIsShardCountInvariant(t *testing.T) {
	t.Run("shards=1", testRefreshComputesPolicyInputs)
}

func testRefreshComputesPolicyInputs(t *testing.T) {
	snap := newRegistrySnapshot()
	k := vtime.NewKernel(1)
	defer k.Stop()
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(time.Millisecond)})
	kv := anna.NewKVS(k, net, anna.DefaultConfig())
	for key, lat := range snap.caps {
		kv.Preload(key, lat)
	}
	ep := net.AddNode("monitor-0")
	own := kv.NewClient(ep, 0)
	m := New(k, ep, own, &fakePool{threads: snap.live}, DefaultConfig())

	var calls, done map[string]int64
	k.Run("refresh", func() { calls, done = m.refresh() })
	if !maps.Equal(calls, snap.wantCalls) || !maps.Equal(done, snap.wantDone) {
		t.Fatalf("counters calls %v done %v, want %v and %v", calls, done, snap.wantCalls, snap.wantDone)
	}
	if !reflect.DeepEqual(m.threadMetrics, snap.wantMetrics) {
		t.Fatalf("thread metrics %v, want %v", m.threadMetrics, snap.wantMetrics)
	}
	if !maps.EqualFunc(m.pins, snap.wantPins, slices.Equal) {
		t.Fatalf("pins %v, want %v", m.pins, snap.wantPins)
	}

	// A scheduler whose capsule the next read misses counts for nothing
	// that tick: the counters are summed afresh, not carried.
	k.Run("refresh", func() {
		own.Delete(core.SchedMetricsKey("sched-2"))
		calls, done = m.refresh()
	})
	if want := map[string]int64{"d0": 3, "d1": 10}; !maps.Equal(calls, want) {
		t.Fatalf("calls %v after sched-2's capsule vanished, want %v", calls, want)
	}
	if want := map[string]int64{"d0": 1}; !maps.Equal(done, want) {
		t.Fatalf("done %v after sched-2's capsule vanished, want %v", done, want)
	}
}
