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
	s := New(k, ep, kv.NewClient(ep, 0), DefaultConfig(), 0, 1)
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
	lone := New(k2, ep2, anna.NewKVS(k2, net2, anna.DefaultConfig()).NewClient(ep2, 0), DefaultConfig(), 0, 1)
	lone.cacheKeys["vm0"] = s.cacheKeys["vm0"]
	k2.Run("lone", lone.refreshView)
	if _, ok := lone.cacheKeys["vm0"]; !ok {
		t.Error("a failed registry read pruned a key list")
	}
}

// TestDepartedThreadLeavesStampTable: a thread's saved assignment stamp
// is kept while its metrics key is in the executor registry or its last
// report is fresh, and not after. The threads of vm0 and vm1 report and
// are assigned to; the reaper scrubs vm1's keys from the registry and vm1
// reports no more. Meanwhile a listing misses the live exec-vm0-1 for two
// polls, as a read from a lagging replica does. Once vm1's reports are
// stale no vm1 thread holds a stamp, while vm0's keep theirs. A scheduler
// whose registry read fails keeps every stamp.
func TestDepartedThreadLeavesStampTable(t *testing.T) {
	k := vtime.NewKernel(1)
	defer k.Stop()
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(200 * time.Microsecond)})
	kv := anna.NewKVS(k, net, anna.DefaultConfig())
	ep := net.AddNode("sched-0")
	s := New(k, ep, kv.NewClient(ep, 0), DefaultConfig(), 0, 1)
	vms := kv.NewClient(net.AddNode("vms"), 0)
	threads := map[string][]string{"vm0": {"exec-vm0-0", "exec-vm0-1"}, "vm1": {"exec-vm1-0", "exec-vm1-1"}}
	keys := func(vm string) []string {
		var out []string
		for _, th := range threads[vm] {
			out = append(out, core.ExecMetricsKey(th))
		}
		return out
	}
	// The VMs' metrics publications, as each VM's daemon runs them.
	publish := func(vm string) {
		for _, th := range threads[vm] {
			em := core.ExecutorMetrics{Thread: simnet.NodeID(th), VM: vm, ReportedAtS: k.Now().Seconds()}
			ts := lattice.Timestamp{Clock: int64(k.Now()), Node: lattice.NodeHash(th)}
			if err := vms.Put(core.ExecMetricsKey(th), lattice.NewLWW(ts, codec.MustEncode(em))); err != nil {
				t.Fatal(err)
			}
		}
	}
	list := func(f func(string, []string) error, keys []string) {
		if err := f(executor.MetricListKey, keys); err != nil {
			t.Fatal(err)
		}
	}
	add := func(key string, keys []string) error { return vms.Put(key, lattice.NewSet(keys...)) }
	k.Run("test", func() {
		s.Start()
		publish("vm0")
		publish("vm1")
		list(add, append(keys("vm0"), keys("vm1")...))
		k.Sleep(2 * pollInterval)
		if len(s.view.threads) != 4 {
			t.Fatalf("the view holds %d threads, want 4", len(s.view.threads))
		}
		for i := range s.view.threads {
			s.assign(i)
		}
		list(vms.RemoveFromSet, keys("vm1")) // the reaper
		list(vms.RemoveFromSet, keys("vm0")[1:])
		for i := 0; i < 2; i++ {
			publish("vm0")
			k.Sleep(pollInterval)
		}
		list(add, keys("vm0")[1:])
		for at := 2 * pollInterval; at < DefaultConfig().StaleAfter+2*pollInterval; at += pollInterval {
			publish("vm0")
			k.Sleep(pollInterval)
		}
	})
	want := map[simnet.NodeID]int64{"exec-vm0-0": 1, "exec-vm0-1": 2}
	if got := s.stamps(); !maps.Equal(got, want) {
		t.Fatalf("after the reaper the scheduler holds the stamps %v, want %v", got, want)
	}

	// A registry that cannot be read (here: never written) prunes nothing.
	k2 := vtime.NewKernel(1)
	defer k2.Stop()
	net2 := simnet.New(k2, simnet.Link{Latency: simnet.Constant(200 * time.Microsecond)})
	ep2 := net2.AddNode("sched-0")
	lone := New(k2, ep2, anna.NewKVS(k2, net2, anna.DefaultConfig()).NewClient(ep2, 0), DefaultConfig(), 0, 1)
	for id, stamp := range want {
		lone.lastAssigned[id] = savedStamp{stamp: stamp}
	}
	k2.Run("lone", func() {
		k2.Sleep(2 * DefaultConfig().StaleAfter) // every saved stamp's report is stale
		lone.refreshView()
	})
	if got := lone.stamps(); !maps.Equal(got, want) {
		t.Errorf("a failed registry read left the stamps %v, want %v", got, want)
	}
}

// TestVanishedPinsLeavePinTable: a function's pin list goes once every
// thread on it is gone by the stamp table's double check (no fresh
// report, unlisted, its last report stale), and not before. vm1's two
// threads pin "f" and report once, half a second in; the reaper scrubs them from the
// executor registry at the next poll, while vm0 reports every second.
// A listing misses vm0's "h" thread for two polls, as a read from a
// lagging replica does, and "h" stays. addPin pins "k" on vm2's thread,
// whose one report is about to go stale, just as the reaper scrubs it:
// "k" stays through the next poll and goes at the one after. vm3's
// thread pins "j", reports once and is never reaped: a stale thread the
// registry still lists keeps its pins. Polls are by hand, one a second.
func TestVanishedPinsLeavePinTable(t *testing.T) {
	k := vtime.NewKernel(1)
	defer k.Stop()
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(200 * time.Microsecond)})
	kv := anna.NewKVS(k, net, anna.DefaultConfig())
	ep := net.AddNode("sched-0")
	s := New(k, ep, kv.NewClient(ep, 0), DefaultConfig(), 0, 1)
	vms := kv.NewClient(net.AddNode("vms"), 0)
	threads := map[string][]string{"vm0": {"exec-vm0-0", "exec-vm0-1"}, "vm1": {"exec-vm1-0", "exec-vm1-1"}, "vm2": {"exec-vm2-0"}, "vm3": {"exec-vm3-0"}}
	pinned := map[string][]string{"exec-vm0-0": {"g"}, "exec-vm0-1": {"h"}, "exec-vm1-0": {"f"}, "exec-vm1-1": {"f"}, "exec-vm3-0": {"j"}}
	publish := func(vm string) {
		for _, th := range threads[vm] {
			em := core.ExecutorMetrics{Thread: simnet.NodeID(th), VM: vm, ReportedAtS: k.Now().Seconds(), Pinned: pinned[th]}
			ts := lattice.Timestamp{Clock: int64(k.Now()), Node: lattice.NodeHash(th)}
			if err := vms.Put(core.ExecMetricsKey(th), lattice.NewLWW(ts, codec.MustEncode(em))); err != nil {
				t.Fatal(err)
			}
		}
	}
	list := func(f func(string, []string) error, ths ...string) {
		var keys []string
		for _, th := range ths {
			keys = append(keys, core.ExecMetricsKey(th))
		}
		if err := f(executor.MetricListKey, keys); err != nil {
			t.Fatal(err)
		}
	}
	add := func(key string, keys []string) error { return vms.Put(key, lattice.NewSet(keys...)) }
	holds := func(at int, want ...string) {
		t.Helper()
		if got := slices.Sorted(maps.Keys(s.pins)); !slices.Equal(got, want) {
			t.Fatalf("after the poll at %d s the scheduler pins %q, want %q", at, got, want)
		}
	}
	k.Run("test", func() {
		publish("vm0")
		list(add, "exec-vm0-0", "exec-vm0-1", "exec-vm1-0", "exec-vm1-1", "exec-vm2-0", "exec-vm3-0")
		k.Sleep(time.Second / 2) // half a second off the polls: no report is stale at a poll by a hair
		publish("vm1")
		publish("vm2")
		publish("vm3")
		for at := 1; at <= 12; at++ {
			k.Sleep(time.Duration(at)*time.Second - time.Duration(k.Now()))
			publish("vm0")
			s.refreshView()
			switch at {
			case 1:
				if !slices.Equal(s.pins["f"], []simnet.NodeID{"exec-vm1-0", "exec-vm1-1"}) {
					t.Fatalf("f is pinned on %v, want both vm1 threads", s.pins["f"])
				}
				list(vms.RemoveFromSet, "exec-vm1-0", "exec-vm1-1", "exec-vm0-1") // the reaper; the lag
			case 2:
				holds(at, "f", "g", "h", "j")
			case 3:
				holds(at, "f", "g", "h", "j")
				list(add, "exec-vm0-1")
			case 10:
				holds(at, "f", "g", "h", "j")
				list(vms.RemoveFromSet, "exec-vm2-0")
				s.addPin("k", "exec-vm2-0")
			case 11:
				holds(at, "g", "h", "j", "k")
			}
		}
	})
	holds(12, "g", "h", "j")
}
