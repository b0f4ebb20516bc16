package fault

import (
	"math/rand"
	"slices"
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
		During(2*time.Second, 6*time.Second, CrashVM{VM: victim})
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
		During(0, time.Second, DegradeVM{VM: h.Name, Policy: simnet.LinkPolicy{Drop: 1}})
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
		During(0, time.Second, CrashAnnaNode{Index: 0}).
		At(0, DropSnapshots{})
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

func TestRandomPlanIsReproducibleAndHealed(t *testing.T) {
	opts := RandomOpts{
		Start: 2 * time.Second, Window: 20 * time.Second, Faults: 5,
		VMs: []string{"vm0", "vm1", "vm2"}, Nodes: []simnet.NodeID{"sched-0"},
		AnnaNodes: 3,
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
	// Every fault must heal inside the window, each healable fault once
	// and strictly after it applied.
	applied := map[Action]time.Duration{}
	faults, heals := 0, 0
	for _, ev := range a.Events {
		if ev.At >= opts.Start+opts.Window {
			t.Fatalf("event at %v, past the window end %v", ev.At, opts.Start+opts.Window)
		}
		switch act := ev.Action.(type) {
		case heal:
			heals++
			at, ok := applied[act.f]
			if !ok {
				t.Fatalf("heal of %#v at %v before its fault", act.f, ev.At)
			}
			if ev.At <= at {
				t.Fatalf("%#v heals at %v, not after its fault at %v", act.f, ev.At, at)
			}
			delete(applied, act.f)
		case Healer:
			faults++
			applied[act] = ev.At
		}
	}
	if faults == 0 || faults != heals || len(applied) != 0 {
		t.Fatalf("%d healable faults, %d heals, unhealed %v", faults, heals, applied)
	}
}

// TestDuringTimelineIsGolden runs a During of every healable fault kind,
// cold and warm VM crashes, faults on VMs that are not live, and CrashAt
// traps that fire on a VM and a storage node, and holds the timeline to
// the entries each fault and its separately scheduled heal printed when
// a heal was an action type of its own.
func TestDuringTimelineIsGolden(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.VMs = 3
	cfg.Schedulers = 2
	cfg.VMSpinUp = 5 * time.Second
	c := cluster.New(cfg)
	t.Cleanup(c.Close)
	inj := NewInjector(c)
	anna0 := c.KV.Nodes()[0].ID()
	plan := NewPlan("golden").
		At(time.Millisecond, CrashAt{Hook: "test/golden", HealAfter: 2 * time.Second}).
		At(time.Millisecond, CrashAt{Hook: "test/golden", Entity: string(anna0), HealAfter: time.Second}).
		During(time.Second, 2*time.Second, DegradeVM{VM: "vm0", Policy: simnet.LinkPolicy{Drop: 0.5, ExtraLatency: 3 * time.Millisecond}}).
		During(time.Second, 3*time.Second, DegradeNode{Node: "sched-0", Policy: simnet.LinkPolicy{Jitter: 2 * time.Millisecond, Duplicate: 0.25}}).
		During(3*time.Second, 6*time.Second, CrashAnnaNode{Index: 1}).
		During(3*time.Second, 7*time.Second, SplitBrain{VM: "vm1"}).
		During(4*time.Second, 8*time.Second, CrashVM{VM: "vm0"}).
		During(4*time.Second, 9*time.Second, CrashVM{VM: "vm1", Warm: true}).
		During(5*time.Second, 6*time.Second, CrashVM{VM: "vm9"}).
		During(5*time.Second, 6*time.Second, DegradeVM{VM: "vm9", Policy: simnet.LinkPolicy{Drop: 1}})
	c.K.Run("main", func() {
		inj.Start(plan)
		c.K.Sleep(4500 * time.Millisecond)
		if !c.Hooks().Fire("test/golden", "vm2") {
			t.Error("trap did not fire on vm2")
		}
		if !c.Hooks().Fire("test/golden", string(anna0)) {
			t.Errorf("trap did not fire on %s", anna0)
		}
		c.K.Sleep(20 * time.Second)
	})
	want := []string{
		"t=1ms golden: arm crash-at test/golden",
		"t=1ms golden: arm crash-at test/golden (entity anna-0)",
		"t=1s golden: degrade vm0 {drop 0.50 lat +3ms jitter 0s dup 0.00}",
		"t=1s golden: degrade node sched-0 {drop 0.00 lat +0s jitter 2ms dup 0.25}",
		"t=2s golden: heal vm0",
		"t=3s golden: heal node sched-0",
		"t=3s golden: crash anna replica anna-1",
		"t=3s golden: split-brain vm1: blinded from 1 control endpoint(s)",
		"t=4s golden: crash vm0",
		"t=4s golden: crash vm1",
		"t=4.5s crash-at test/golden: crash vm2",
		"t=4.5s crash-at test/golden: partition anna-0",
		"t=5s golden: crash vm9: already gone",
		"t=5s golden: degrade vm9: not live",
		"t=5.5s crash-at test/golden: revive anna-0",
		"t=6s golden: revive anna replica anna-1",
		"t=6s golden: restart vm9: unknown VM",
		"t=6s golden: heal vm9: not live",
		"t=6.5s crash-at test/golden: restart vm2 -> vm2.r1",
		"t=7s golden: heal split-brain vm1",
		"t=8s golden: restart vm0 -> vm0.r1 (spin-up)",
		"t=9s golden: warm restart vm1 -> vm1.r1 (spin-up)",
	}
	if got := inj.TimelineStrings(); !slices.Equal(got, want) {
		t.Fatalf("timeline:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestCrashAtSkipsKilledVM fires a CrashAt trap from a VM that was
// already killed, whose processes still run: the trap must stay armed
// for the next live entity rather than be spent on the dead one.
func TestCrashAtSkipsKilledVM(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.VMs = 2
	c := cluster.New(cfg)
	t.Cleanup(c.Close)
	inj := NewInjector(c)
	c.K.Run("main", func() {
		c.KillVM("vm0")
		inj.Run(NewPlan("").At(0, CrashAt{Hook: "test/zombie"}))
		if c.Hooks().Fire("test/zombie", "vm0") {
			t.Error("the killed vm0 sprang the trap")
		}
		if !c.Hooks().Fire("test/zombie", "vm1") {
			t.Error("the live vm1 did not spring the trap")
		}
	})
	if !slices.Contains(inj.TimelineStrings(), "t=0s crash-at test/zombie: crash vm1") {
		t.Fatalf("timeline = %v", inj.TimelineStrings())
	}
	if c.VMCount() != 0 {
		t.Fatalf("%d VMs live after both crashed", c.VMCount())
	}
}
