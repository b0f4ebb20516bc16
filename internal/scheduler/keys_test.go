package scheduler

import (
	"maps"
	"slices"
	"testing"
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/executor"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// TestDepartedCacheLeavesKeyIndex: a VM's last key list is kept until
// its cache leaves the cache registry. vm1 publishes and is replaced by
// vm1.r1, and the reaper scrubs vm1 from the registry: the next poll
// keeps no list under the dead name, and its keys leave the index while
// the live VMs' stay. A scheduler whose registry read fails prunes
// nothing.
func TestDepartedCacheLeavesKeyIndex(t *testing.T) {
	k := vtime.NewKernel(1)
	defer k.Stop()
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(200 * time.Microsecond)})
	kv := anna.NewKVS(k, net, anna.DefaultConfig())
	ep := net.AddNode("sched-0")
	s := New(k, ep, kv.NewClient(ep, 0), DefaultConfig())
	vms := kv.NewClient(net.AddNode("vms"), 0)
	// Boot and the reaper, as the executor VMs and the cluster run them.
	publish := func(vm string, keys ...string) {
		cm := core.CacheMetrics{VM: vm, Keys: codec.StrListOf(keys), ReportedAtS: k.Now().Seconds()}
		ts := lattice.Timestamp{Clock: int64(k.Now()), Node: lattice.NodeHash(vm)}
		if err := vms.Put(core.CacheKeysKey(vm), lattice.NewLWW(ts, codec.MustEncode(cm))); err != nil {
			t.Fatal(err)
		}
		if err := vms.Put(executor.CacheListKey, lattice.NewSet(core.CacheKeysKey(vm))); err != nil {
			t.Fatal(err)
		}
	}
	reap := func(vm string) {
		if err := vms.RemoveFromSet(executor.CacheListKey, []string{core.CacheKeysKey(vm)}); err != nil {
			t.Fatal(err)
		}
	}
	// The view's threads, which no poll replaces: no executor reports.
	s.setThreads([]core.ExecutorMetrics{{Thread: "exec-vm0", VM: "vm0"}, {Thread: "exec-vm1", VM: "vm1"}, {Thread: "exec-vm1.r1", VM: "vm1.r1"}})
	listed := func() []string { return slices.Sorted(maps.Keys(s.cacheKeys)) }
	k.Run("test", func() {
		s.Start()
		publish("vm0", "a", "b")
		publish("vm1", "b", "c")
		k.Sleep(2 * pollInterval)
		if got := listed(); !slices.Equal(got, []string{"vm0", "vm1"}) {
			t.Fatalf("before the kill the scheduler lists %q", got)
		}
		publish("vm1.r1", "d")
		reap("vm1")
		k.Sleep(2 * pollInterval)
	})
	if got := listed(); !slices.Equal(got, []string{"vm0", "vm1.r1"}) {
		t.Fatalf("after the reaper the scheduler lists %q, want vm0 and vm1.r1", got)
	}
	checkIndex(t, s)
	if _, ok := s.view.holders["c"]; ok {
		t.Error("the dead VM's key c is still indexed")
	}

	// A registry that cannot be read (here: never written) prunes nothing.
	k2 := vtime.NewKernel(1)
	defer k2.Stop()
	net2 := simnet.New(k2, simnet.Link{Latency: simnet.Constant(200 * time.Microsecond)})
	ep2 := net2.AddNode("sched-0")
	lone := New(k2, ep2, anna.NewKVS(k2, net2, anna.DefaultConfig()).NewClient(ep2, 0), DefaultConfig())
	lone.cacheKeys["vm0"] = s.cacheKeys["vm0"]
	k2.Run("lone", lone.refreshView)
	if _, ok := lone.cacheKeys["vm0"]; !ok {
		t.Error("a failed registry read pruned a key list")
	}
}
