package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"cloudburst/internal/simnet"
)

func testCluster(t *testing.T, mutate func(*Config)) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.VMSpinUp = 10 * time.Second
	if mutate != nil {
		mutate(&cfg)
	}
	c := New(cfg)
	t.Cleanup(c.Close)
	return c
}

func TestBootInventory(t *testing.T) {
	c := testCluster(t, func(cfg *Config) { cfg.VMs = 3; cfg.ThreadsPerVM = 2; cfg.Schedulers = 2 })
	if c.VMCount() != 3 {
		t.Fatalf("VMs = %d", c.VMCount())
	}
	if c.ThreadCount() != 6 {
		t.Fatalf("threads = %d", c.ThreadCount())
	}
	if len(c.Schedulers()) != 2 {
		t.Fatalf("schedulers = %d", len(c.Schedulers()))
	}
	if got := len(c.KV.Nodes()); got != DefaultConfig().AnnaNodes {
		t.Fatalf("anna nodes = %d", got)
	}
}

func TestAddVMsPaysSpinUpDelay(t *testing.T) {
	c := testCluster(t, nil)
	c.K.Run("main", func() {
		c.AddVMs(2)
		if c.PendingVMs() != 2 {
			t.Fatalf("pending = %d", c.PendingVMs())
		}
		c.K.Sleep(5 * time.Second) // half the spin-up
		if c.VMCount() != 2 {
			t.Fatalf("VMs arrived early: %d", c.VMCount())
		}
		c.K.Sleep(6 * time.Second)
		if c.VMCount() != 4 || c.PendingVMs() != 0 {
			t.Fatalf("after spin-up: vms=%d pending=%d", c.VMCount(), c.PendingVMs())
		}
	})
}

func TestRemoveVMsKeepsFloor(t *testing.T) {
	c := testCluster(t, func(cfg *Config) { cfg.VMs = 3 })
	c.K.Run("main", func() {
		removed := c.RemoveVMs(10)
		if removed != 2 || c.VMCount() != 1 {
			t.Fatalf("removed=%d vms=%d (floor is 1)", removed, c.VMCount())
		}
	})
}

func TestKillVMMarksNodesDown(t *testing.T) {
	c := testCluster(t, nil)
	vm := c.VMs()[0]
	thread := vm.Threads[0].ID()
	if !c.Alive(thread) {
		t.Fatal("thread dead before kill")
	}
	c.K.Run("main", func() { c.KillVM(vm.Name) })
	if c.Alive(thread) {
		t.Fatal("thread alive after kill")
	}
	if c.VMCount() != 1 {
		t.Fatalf("VMs = %d after kill", c.VMCount())
	}
}

func TestRestartVMBootsReplacementGeneration(t *testing.T) {
	c := testCluster(t, nil)
	vm := c.VMs()[0]
	oldThread := vm.Threads[0].ID()
	c.K.Run("main", func() {
		c.KillVM(vm.Name)
		if c.VMCount() != 1 {
			t.Fatalf("VMs after kill = %d", c.VMCount())
		}
		name := c.RestartVM(vm.Name, false)
		if name != vm.Name+".r1" {
			t.Fatalf("replacement name = %q", name)
		}
		// The dead generation is replaced once.
		if again := c.RestartVM(vm.Name, false); again != "" {
			t.Fatalf("second restart of %s returned %q", vm.Name, again)
		}
		if c.PendingVMs() != 1 {
			t.Fatalf("pending = %d", c.PendingVMs())
		}
		c.K.Sleep(11 * time.Second) // spin-up is 10s here
		if c.VMCount() != 2 || c.PendingVMs() != 0 {
			t.Fatalf("after restart: vms=%d pending=%d", c.VMCount(), c.PendingVMs())
		}
		var fresh *VMHandle
		for _, h := range c.VMs() {
			if h.Name == name {
				fresh = h
			}
		}
		if fresh == nil {
			t.Fatalf("replacement %q not in inventory: %v", name, c.vmNames())
		}
		// Fresh endpoints, alive; the dead generation stays partitioned.
		if !c.Alive(fresh.Threads[0].ID()) {
			t.Fatal("replacement thread not alive")
		}
		if c.Alive(oldThread) {
			t.Fatal("dead generation's thread still alive")
		}
		if fresh.Cache.Contains("anything") {
			t.Fatal("replacement cache not cold")
		}
	})
}

func TestRestartVMOfLiveVMCrashesFirst(t *testing.T) {
	c := testCluster(t, nil)
	vm := c.VMs()[0]
	thread := vm.Threads[0].ID()
	c.K.Run("main", func() {
		if name := c.RestartVM("no-such-vm", false); name != "" {
			t.Fatalf("restart of unknown VM returned %q", name)
		}
		name := c.RestartVM(vm.Name, false)
		if name == "" {
			t.Fatal("restart of live VM refused")
		}
		if c.Alive(thread) {
			t.Fatal("live VM not crashed by restart")
		}
		c.K.Sleep(11 * time.Second)
		if c.VMCount() != 2 {
			t.Fatalf("VMs = %d after crash-restart", c.VMCount())
		}
	})
}

func TestThreadsDeterministicOrder(t *testing.T) {
	c := testCluster(t, func(cfg *Config) { cfg.VMs = 3 })
	a := c.Threads()
	b := c.Threads()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("thread order unstable")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			t.Fatalf("threads not sorted: %v", a)
		}
	}
}

// TestVMsSnapshotSurvivesKillAndScaleUp: VMs returns a shared read-only
// snapshot that a kill, a stop or a scale-up replaces rather than edits,
// so a caller iterating one (the fault injector kills as it iterates)
// sees the inventory as it was when it asked. The snapshot costs nothing
// to take and stays sorted by name.
func TestVMsSnapshotSurvivesKillAndScaleUp(t *testing.T) {
	c := testCluster(t, func(cfg *Config) { cfg.VMs = 3 })
	sorted := func(vms []*VMHandle) bool {
		return slices.IsSortedFunc(vms, func(a, b *VMHandle) int { return strings.Compare(a.Name, b.Name) })
	}
	c.K.Run("main", func() {
		before := c.VMs()
		want := slices.Clone(before)
		for _, h := range before {
			if h.Name == "vm1" {
				c.KillVM(h.Name)
			}
		}
		if !slices.Equal(before, want) {
			t.Fatalf("kill edited the snapshot: %v", before)
		}
		afterKill := c.VMs()
		if len(afterKill) != 2 || !sorted(afterKill) {
			t.Fatalf("after kill: %d VMs, sorted=%v", len(afterKill), sorted(afterKill))
		}
		wantAfterKill := slices.Clone(afterKill)
		// vm3..vm9, then vm10 and vm11, which sort between vm0 and vm2:
		// an insert into a list with spare capacity would shift the middle
		// snapshot's elements.
		c.AddVMs(7)
		c.K.Sleep(11 * time.Second)
		mid := c.VMs()
		wantMid := slices.Clone(mid)
		c.AddVMs(2)
		c.K.Sleep(11 * time.Second)
		if !slices.Equal(before, want) || !slices.Equal(afterKill, wantAfterKill) || !slices.Equal(mid, wantMid) {
			t.Fatal("scale-up edited an earlier snapshot")
		}
		grown := c.VMs()
		if len(grown) != 11 || !sorted(grown) {
			t.Fatalf("after scale-up: %d VMs, sorted=%v", len(grown), sorted(grown))
		}
		wantGrown := slices.Clone(grown)
		c.RemoveVMs(3)
		if !slices.Equal(grown, wantGrown) {
			t.Fatal("stopping VMs edited an earlier snapshot")
		}
		if n := len(c.VMs()); n != 8 || !sorted(c.VMs()) {
			t.Fatalf("after stop: %d VMs", n)
		}
	})
	if n := testing.AllocsPerRun(100, func() { c.VMs() }); n != 0 {
		t.Fatalf("VMs allocates %.1f times per call, want 0", n)
	}
}

func TestPickSchedulerCoversAll(t *testing.T) {
	c := testCluster(t, func(cfg *Config) { cfg.Schedulers = 3 })
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[string(c.PickScheduler())] = true
	}
	if len(seen) != 3 {
		t.Fatalf("load balancer only hit %d of 3 schedulers", len(seen))
	}
}

// TestRouteSchedulerRendezvous pins the consistent request-hash
// routing: deterministic per request, balanced across the group, and
// an attempt walk that enumerates every shard before wrapping — the
// property the traffic pool's re-issues and Future.Wait's re-route
// rely on to land on a different shard than the one that went silent.
func TestRouteSchedulerRendezvous(t *testing.T) {
	c := testCluster(t, func(cfg *Config) { cfg.Schedulers = 3 })
	seen := map[simnet.NodeID]int{}
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("client-9-r%d", i)
		primary := c.RouteScheduler(id, 0)
		if got := c.RouteScheduler(id, 0); got != primary {
			t.Fatalf("route not deterministic for %s: %s vs %s", id, got, primary)
		}
		seen[primary]++
		walk := map[simnet.NodeID]bool{}
		for a := 0; a < 3; a++ {
			walk[c.RouteScheduler(id, a)] = true
		}
		if len(walk) != 3 {
			t.Fatalf("attempt walk visited %d of 3 shards for %s", len(walk), id)
		}
		if c.RouteScheduler(id, 3) != primary {
			t.Fatalf("attempt ranking did not wrap for %s", id)
		}
		// Attempt a goes to the a'th shard by descending score.
		ranked := slices.Clone(c.Schedulers())
		sort.Slice(ranked, func(i, j int) bool {
			return rendezvousScore(id, ranked[i].ID()) > rendezvousScore(id, ranked[j].ID())
		})
		for a, s := range ranked {
			if got := c.RouteScheduler(id, a); got != s.ID() {
				t.Fatalf("%s attempt %d routed to %s, rank %d is %s", id, a, got, a, s.ID())
			}
		}
	}
	for sid, n := range seen {
		if n < 50 {
			t.Fatalf("unbalanced rendezvous routing: %s got %d of 300", sid, n)
		}
	}
}

// TestRouteSchedulerAllocationFree: routing a request to a shard is on
// every client request's path and allocates nothing, whatever the group
// size.
func TestRouteSchedulerAllocationFree(t *testing.T) {
	for _, shards := range []int{2, 4} {
		c := testCluster(t, func(cfg *Config) { cfg.Schedulers = shards })
		attempt := 0
		if n := testing.AllocsPerRun(200, func() {
			c.RouteScheduler("client-3-r17", attempt)
			attempt++
		}); n != 0 {
			t.Errorf("%d shards: RouteScheduler allocates %.1f times per call, want 0", shards, n)
		}
	}
}

func TestClientEndpointsUnique(t *testing.T) {
	c := testCluster(t, nil)
	a := c.NewClientEndpoint()
	b := c.NewClientEndpoint()
	if a.ID() == b.ID() {
		t.Fatal("duplicate client endpoints")
	}
}
