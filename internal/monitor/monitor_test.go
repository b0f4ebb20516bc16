package monitor_test

import (
	"strings"
	"testing"
	"time"

	cb "cloudburst"
	"cloudburst/internal/simnet"
)

// The monitor is tested end to end against a live cluster: its inputs
// are the metrics executors and schedulers publish to Anna, and its
// outputs are pin messages and VM lifecycle calls.

func TestReplicaScalingUnderLoad(t *testing.T) {
	cfg := cb.DefaultConfig()
	cfg.VMs = 4 // 12 threads
	cfg.Autoscale = true
	cfg.MinPinned = 2
	cfg.VMSpinUp = 20 * time.Second
	cfg.MaxVMs = 4 // isolate replica scaling from node scaling
	c := cb.NewCluster(cfg)
	defer c.Close()
	if err := c.RegisterFunction("busy", func(ctx *cb.Ctx, args []any) (any, error) {
		ctx.Compute(40 * time.Millisecond)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDAG(cb.LinearDAG("busy-dag", "busy"), 2); err != nil {
		t.Fatal(err)
	}
	mon := c.Internal().Monitor
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second) })
	if p := mon.Pins("busy"); p > 4 {
		t.Fatalf("pins before load = %d", p)
	}
	// Saturate the two pinned replicas for a while.
	c.RunN(16, func(i int, cl *cb.Client) {
		cl.Timeout = 2 * time.Minute
		deadline := time.Duration(cl.Now()) + 45*time.Second
		for time.Duration(cl.Now()) < deadline {
			cl.InvokeDAG("busy-dag", nil).Wait()
		}
	})
	grown := mon.Pins("busy")
	if grown < 6 {
		t.Fatalf("replicas did not grow under saturation: %d", grown)
	}
	// Drain: replicas must shrink back toward the floor within ~20s of
	// simulated time (the paper's drain behaviour).
	c.Run(func(cl *cb.Client) { cl.Sleep(40 * time.Second) })
	if shrunk := mon.Pins("busy"); shrunk >= grown {
		t.Fatalf("replicas did not shrink after drain: %d -> %d", grown, shrunk)
	}
	if len(mon.Events) == 0 {
		t.Fatal("no scaling events recorded")
	}
}

func TestNodeScalingAddsAndRemovesVMs(t *testing.T) {
	cfg := cb.DefaultConfig()
	cfg.VMs = 2 // 6 threads
	cfg.Autoscale = true
	cfg.MinPinned = 2
	cfg.VMSpinUp = 15 * time.Second
	cfg.ScaleUpVMs = 2
	cfg.MaxVMs = 6
	c := cb.NewCluster(cfg)
	defer c.Close()
	if err := c.RegisterFunction("hog", func(ctx *cb.Ctx, args []any) (any, error) {
		ctx.Compute(50 * time.Millisecond)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDAG(cb.LinearDAG("hog-dag", "hog"), 2); err != nil {
		t.Fatal(err)
	}
	in := c.Internal()
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second) })
	// Overwhelm all 6 threads so average utilization crosses 70%.
	c.RunN(24, func(i int, cl *cb.Client) {
		cl.Timeout = 2 * time.Minute
		deadline := time.Duration(cl.Now()) + 60*time.Second
		for time.Duration(cl.Now()) < deadline {
			cl.InvokeDAG("hog-dag", nil).Wait()
		}
	})
	if in.VMCount() <= 2 {
		t.Fatalf("no VMs added under saturation: %d", in.VMCount())
	}
	peak := in.VMCount()
	// Idle: the monitor must deallocate back toward the floor.
	c.Run(func(cl *cb.Client) { cl.Sleep(2 * time.Minute) })
	if in.VMCount() >= peak {
		t.Fatalf("no scale-down after drain: peak=%d now=%d", peak, in.VMCount())
	}
}

// vmOf recovers the VM name from an executor-thread id ("exec-vm1-2" →
// "vm1").
func vmOf(id simnet.NodeID) string {
	s := strings.TrimPrefix(string(id), "exec-")
	if i := strings.LastIndex(s, "-"); i > 0 {
		return s[:i]
	}
	return s
}

// TestCrashReplacementPinsSpreadAcrossVMs crashes a VM under sustained
// load and checks the monitor's replacement pins: they must land on the
// surviving VMs (never the dead one) and spread across at least two
// distinct VMs instead of concentrating on the lexicographically-lowest
// threads of one survivor (the carried ROADMAP bias — with four
// replicas pinned as vm0-0/vm0-1/vm1-0/vm2-0, killing vm0 makes the
// biased pinMore refill both replacements on vm1).
func TestCrashReplacementPinsSpreadAcrossVMs(t *testing.T) {
	cfg := cb.DefaultConfig()
	cfg.VMs = 3 // 9 threads across vm0..vm2
	cfg.Autoscale = true
	cfg.MaxVMs = 3 // no node adds: replacement pins must use survivors
	cfg.MinPinned = 4
	cfg.VMSpinUp = time.Hour
	c := cb.NewCluster(cfg)
	defer c.Close()
	if err := c.RegisterFunction("busy", func(ctx *cb.Ctx, args []any) (any, error) {
		ctx.Compute(40 * time.Millisecond)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDAG(cb.LinearDAG("busy-dag", "busy"), 4); err != nil {
		t.Fatal(err)
	}
	mon := c.Internal().Monitor
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second) })

	var atKill []simnet.NodeID
	c.RunN(13, func(i int, cl *cb.Client) {
		cl.Timeout = 2 * time.Minute
		if i == 0 {
			// The killer: crash vm0 (hosting two of the four pins)
			// mid-load; the monitor's MinPin floor then has to refill the
			// lost replicas from the survivors.
			cl.Sleep(8 * time.Second)
			atKill = mon.PinnedThreads("busy")
			c.Internal().KillVM("vm0")
			return
		}
		deadline := time.Duration(cl.Now()) + 40*time.Second
		for time.Duration(cl.Now()) < deadline {
			cl.InvokeDAG("busy-dag", nil).Wait()
		}
	})

	before := make(map[simnet.NodeID]bool, len(atKill))
	for _, id := range atKill {
		before[id] = true
	}
	var added []simnet.NodeID
	vms := make(map[string]bool)
	for _, id := range mon.PinnedThreads("busy") {
		if before[id] {
			continue
		}
		added = append(added, id)
		if vmOf(id) == "vm0" {
			t.Fatalf("replacement pin landed on the dead VM: %s", id)
		}
		vms[vmOf(id)] = true
	}
	if len(added) < 2 {
		t.Fatalf("expected >=2 replacement pins after the crash, got %v", added)
	}
	if len(vms) < 2 {
		t.Fatalf("replacement pins concentrated on one VM: %v", added)
	}
}
