package fault

import (
	"math/rand"
	"time"

	"cloudburst/internal/simnet"
)

// RandomOpts parameterizes RandomPlan.
type RandomOpts struct {
	// Start is the offset of the first possible event; Window (positive)
	// bounds the whole plan — every injected fault is healed (or its VM
	// restarted) strictly before Start+Window, so a workload phase after
	// the window runs against a fully-healed cluster.
	Start, Window time.Duration
	// Faults is how many fault/heal pairs to draw.
	Faults int
	// VMs are the candidate victims for crash/degrade faults (live VM
	// names at plan-build time). Empty disables VM faults, and crash
	// faults need at least two (the spin-up delay must be short enough
	// to complete inside Window).
	VMs []string
	// Nodes are extra candidate endpoints for node-level degradation
	// (schedulers, typically). Empty disables node faults.
	Nodes []simnet.NodeID
	// AnnaNodes is the storage-node count; > 0 enables replica-loss
	// faults.
	AnnaNodes int
	// AllowWarmRestart makes drawn crash faults recover through the warm
	// cache handoff instead of a cold restart.
	AllowWarmRestart bool
	// AllowSplitBrain adds control-plane split-brain pairs to the draw: a
	// VM is blinded from the monitor (or half the scheduler group)
	// while the rest of the control plane keeps scheduling onto it, then
	// healed inside the window.
	AllowSplitBrain bool
}

// RandomPlan draws a reproducible randomized chaos plan from rng: a mix
// of VM crash+restart pairs, transient VM/node degradations (partial
// drops, added latency, jitter, duplication, and full partitions), Anna
// replica loss, cache snapshot drops and, with AllowSplitBrain,
// control-plane split-brains. Equal rng streams and options
// yield identical plans, so chaos-matrix runs stay deterministic under a
// fixed seed.
func RandomPlan(rng *rand.Rand, o RandomOpts) *Plan {
	p := NewPlan("chaos")
	// Each fault occupies a sub-interval of [Start, Start+Window): begin
	// in the first two thirds, heal strictly inside the window.
	interval := func() (from, to time.Duration) {
		span := o.Window
		from = o.Start + time.Duration(rng.Int63n(int64(span*2/3)))
		rest := o.Start + span - from
		to = from + rest/4 + time.Duration(rng.Int63n(int64(rest/2)))
		return from, to
	}
	degradation := func() simnet.LinkPolicy {
		switch rng.Intn(3) {
		case 0: // lossy
			return simnet.LinkPolicy{Drop: 0.1 + 0.4*rng.Float64(), Jitter: 2 * time.Millisecond}
		case 1: // slow
			return simnet.LinkPolicy{
				ExtraLatency: time.Duration(5+rng.Intn(40)) * time.Millisecond,
				Jitter:       time.Duration(1+rng.Intn(10)) * time.Millisecond,
			}
		default: // duplicating
			return simnet.LinkPolicy{Duplicate: 0.2 + 0.5*rng.Float64(), Jitter: time.Millisecond}
		}
	}
	kinds := []int{}
	if len(o.VMs) > 1 {
		kinds = append(kinds, 0)
	}
	if len(o.VMs) > 0 {
		kinds = append(kinds, 1)
	}
	if len(o.Nodes) > 0 {
		kinds = append(kinds, 2)
	}
	if o.AnnaNodes > 0 {
		kinds = append(kinds, 3)
	}
	kinds = append(kinds, 4) // snapshot drops are always available
	if o.AllowSplitBrain && len(o.VMs) > 0 {
		kinds = append(kinds, 5)
	}
	for i := 0; i < o.Faults; i++ {
		from, to := interval()
		switch kinds[rng.Intn(len(kinds))] {
		case 0:
			p.During(from, to, CrashVM{VM: o.VMs[rng.Intn(len(o.VMs))], Warm: o.AllowWarmRestart})
		case 1:
			vm := o.VMs[rng.Intn(len(o.VMs))]
			pol := degradation()
			if rng.Intn(3) == 0 {
				pol = simnet.LinkPolicy{Drop: 1} // transient full partition
			}
			p.During(from, to, DegradeVM{VM: vm, Policy: pol})
		case 2:
			n := o.Nodes[rng.Intn(len(o.Nodes))]
			p.During(from, to, DegradeNode{Node: n, Policy: degradation()})
		case 3:
			p.During(from, to, CrashAnnaNode{Index: rng.Intn(o.AnnaNodes)})
		case 5:
			p.During(from, to, SplitBrain{VM: o.VMs[rng.Intn(len(o.VMs))]})
		default:
			p.At(from, DropSnapshots{})
		}
	}
	return p
}
