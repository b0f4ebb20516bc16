package fault

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"cloudburst/internal/cluster"
	"cloudburst/internal/simnet"
)

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.VMs = 3
	cfg.VMSpinUp = 5 * time.Second
	c := cluster.New(cfg)
	t.Cleanup(c.Close)
	return c
}

func TestPlanRunsEventsOnSchedule(t *testing.T) {
	c := testCluster(t)
	inj := NewInjector(c)
	victim := c.VMs()[0].Name
	plan := NewPlan("test").
		At(2*time.Second, CrashVM{VM: victim}).
		At(6*time.Second, RestartVM{})
	c.K.Run("main", func() {
		start := c.K.Now()
		inj.Run(plan)
		if elapsed := c.K.Now().Sub(start); elapsed != 6*time.Second {
			t.Fatalf("plan finished after %v, want 6s", elapsed)
		}
	})
	if len(inj.Timeline) != 2 {
		t.Fatalf("timeline = %v", inj.TimelineStrings())
	}
	if !strings.Contains(inj.Timeline[0].Desc, "crash "+victim) {
		t.Fatalf("entry 0 = %q", inj.Timeline[0].Desc)
	}
	if !strings.Contains(inj.Timeline[1].Desc, "restart "+victim) {
		t.Fatalf("entry 1 = %q", inj.Timeline[1].Desc)
	}
	// The crash removed the VM; the restart's replacement joins after
	// spin-up.
	c.K.Run("wait", func() { c.K.Sleep(6 * time.Second) })
	if c.VMCount() != 3 {
		t.Fatalf("VMs after crash+restart = %d, want 3", c.VMCount())
	}
}

func TestDegradeAndHealVM(t *testing.T) {
	c := testCluster(t)
	inj := NewInjector(c)
	h := c.VMs()[1]
	plan := NewPlan("").
		At(0, DegradeVM{VM: h.Name, Policy: simnet.LinkPolicy{Drop: 1}}).
		At(time.Second, HealVM{VM: h.Name})
	c.K.Run("main", func() {
		inj.Start(plan)
		c.K.Sleep(500 * time.Millisecond)
		if !c.Net.Down(h.Threads[0].ID()) {
			t.Fatal("degrade did not install the policy")
		}
		c.K.Sleep(time.Second)
		if c.Net.Down(h.Threads[0].ID()) {
			t.Fatal("heal did not clear the policy")
		}
		// Unlike CrashVM, the inventory was untouched throughout.
		if c.VMCount() != 3 {
			t.Fatalf("VMs = %d", c.VMCount())
		}
	})
}

func TestAnnaReplicaLossAndSnapshotDrop(t *testing.T) {
	c := testCluster(t)
	inj := NewInjector(c)
	annaID := c.KV.Nodes()[0].ID()
	plan := NewPlan("").
		At(0, CrashAnnaNode{Index: 0}).
		At(0, DropSnapshots{}).
		At(time.Second, ReviveAnnaNode{Index: 0})
	c.K.Run("main", func() {
		inj.Start(plan)
		c.K.Sleep(100 * time.Millisecond)
		if !c.Net.Down(annaID) {
			t.Fatal("storage node not partitioned")
		}
		c.K.Sleep(time.Second)
		if c.Net.Down(annaID) {
			t.Fatal("storage node not revived")
		}
	})
	found := false
	for _, d := range inj.TimelineStrings() {
		if strings.Contains(d, "drop snapshots on 3 cache(s)") {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot drop missing from timeline: %v", inj.TimelineStrings())
	}
}

func TestStopAbortsPlan(t *testing.T) {
	c := testCluster(t)
	inj := NewInjector(c)
	plan := NewPlan("").
		At(time.Second, DropSnapshots{}).
		At(time.Hour, DropSnapshots{})
	c.K.Run("main", func() {
		inj.Start(plan)
		c.K.Sleep(2 * time.Second)
		inj.Stop()
		c.K.Sleep(time.Second)
	})
	if len(inj.Timeline) != 1 {
		t.Fatalf("timeline after stop = %v", inj.TimelineStrings())
	}
}

func TestRandomPlanIsReproducibleAndHealed(t *testing.T) {
	opts := RandomOpts{
		Start: 2 * time.Second, Window: 20 * time.Second, Faults: 5,
		VMs: []string{"vm0", "vm1", "vm2"}, Nodes: []simnet.NodeID{"sched-0"},
		AnnaNodes: 3, AllowCrash: true,
	}
	a := RandomPlan(rand.New(rand.NewSource(9)), opts)
	b := RandomPlan(rand.New(rand.NewSource(9)), opts)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("plans differ in length: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i].At != b.Events[i].At {
			t.Fatalf("event %d at %v vs %v", i, a.Events[i].At, b.Events[i].At)
		}
	}
	// Every fault must heal inside the window, and every crash must have
	// a matching restart.
	if d := a.Duration(); d >= opts.Start+opts.Window {
		t.Fatalf("plan extends to %v, past the window end %v", d, opts.Start+opts.Window)
	}
	crashes, restarts := 0, 0
	for _, ev := range a.Events {
		switch ev.Action.(type) {
		case CrashVM:
			crashes++
		case RestartVM:
			restarts++
		}
	}
	if crashes != restarts {
		t.Fatalf("%d crashes vs %d restarts", crashes, restarts)
	}
}
