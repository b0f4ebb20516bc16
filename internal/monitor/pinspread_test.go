package monitor

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"cloudburst/internal/core"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// fakePool is a ComputePool over a fixed thread list.
type fakePool struct{ threads []simnet.NodeID }

func (f *fakePool) AddVMs(int)               {}
func (f *fakePool) RemoveVMs(int) int        { return 0 }
func (f *fakePool) VMCount() int             { return 3 }
func (f *fakePool) PendingVMs() int          { return 0 }
func (f *fakePool) Threads() []simnet.NodeID { return f.threads }

// TestPinMoreSpreadsAcrossVMs drives pinMore directly against a
// three-VM pool whose threads all report identical utilization — the
// state right after a crash, where the old (util, id) sort concentrated
// every new pin on the first VM's threads. Two new pins must land on
// two distinct VMs.
func TestPinMoreSpreadsAcrossVMs(t *testing.T) {
	k := vtime.NewKernel(1)
	defer k.Stop()
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(time.Millisecond)})
	ep := net.AddNode("monitor-0")
	pool := &fakePool{}
	m := New(k, ep, nil, pool, DefaultConfig())
	for vm := 0; vm < 3; vm++ {
		for i := 0; i < 3; i++ {
			id := simnet.NodeID(fmt.Sprintf("exec-vm%d-%d", vm, i))
			pool.threads = append(pool.threads, id)
			m.threadMetrics[id] = core.ExecutorMetrics{
				Thread: id, VM: fmt.Sprintf("vm%d", vm), Utilization: 0,
			}
		}
	}
	k.Run("pin", func() { m.pinMore("f", 2) })
	pins := m.pins["f"]
	if len(pins) != 2 {
		t.Fatalf("pinMore added %d pins, want 2 (%v)", len(pins), pins)
	}
	vms := make(map[string]bool)
	for _, id := range pins {
		vms[m.threadMetrics[id].VM] = true
	}
	if len(vms) < 2 {
		t.Fatalf("new pins concentrated on one VM: %v", pins)
	}
}

// TestUnpinSomeReleasesUpToN holds unpinSome to its "up to n": n = 0
// releases nothing, a small n releases exactly n from the end of the
// list, and a large n stops at the MinPin floor.
func TestUnpinSomeReleasesUpToN(t *testing.T) {
	k := vtime.NewKernel(1)
	defer k.Stop()
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(time.Millisecond)})
	ep := net.AddNode("monitor-0")
	var threads []simnet.NodeID
	for i := range 5 {
		threads = append(threads, simnet.NodeID(fmt.Sprintf("exec-vm0-%d", i)))
	}
	m := New(k, ep, nil, &fakePool{threads: threads}, DefaultConfig())
	m.pins["f"] = slices.Clone(threads)
	for _, step := range []struct{ n, want int }{{0, 5}, {2, 3}, {10, 1}} {
		k.Run("unpin", func() { m.unpinSome("f", step.n) })
		if got := m.pins["f"]; !slices.Equal(got, threads[:step.want]) {
			t.Fatalf("unpinSome(f, %d) left %v, want %v", step.n, got, threads[:step.want])
		}
	}
}

func TestDefaultConfigThresholds(t *testing.T) {
	if utilHigh != 0.70 || utilLow != 0.20 {
		t.Fatalf("thresholds diverge from §4.4: high %v, low %v", utilHigh, utilLow)
	}
	if cfg := DefaultConfig(); cfg.ScaleUp != 20 {
		t.Fatalf("scale-up batch = %d, want the paper's 20", cfg.ScaleUp)
	}
}
