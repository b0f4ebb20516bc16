package scheduler

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"cloudburst/internal/core"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// pickExecutorPerThread is pickExecutor as it was before locality was
// scored once per VM: the same policy with the score recomputed for every
// thread. It is the oracle of TestPickExecutorMatchesPerThreadScoring.
func (s *Scheduler) pickExecutorPerThread(fn string, args []core.Arg, exclude map[simnet.NodeID]bool, pinnedOnly bool) simnet.NodeID {
	var pool []simnet.NodeID
	if pinnedOnly {
		for _, t := range s.pins[fn] {
			if _, live := s.threads[t]; live {
				pool = append(pool, t)
			}
		}
	}
	if len(pool) == 0 {
		pool = append(pool, s.threadIDs...)
	}
	pool = slices.DeleteFunc(pool, func(id simnet.NodeID) bool { return exclude[id] })
	if len(pool) == 0 {
		return ""
	}
	var healthy []simnet.NodeID
	for _, id := range pool {
		if s.threads[id].metrics.Utilization < utilThreshold {
			healthy = append(healthy, id)
		}
	}
	if len(healthy) > 0 && len(healthy)*2 >= len(pool) {
		pool = healthy
	}
	if s.cfg.RandomPolicy {
		return s.assign(pool[s.k.Rand().Intn(len(pool))])
	}
	var refs []string
	for _, a := range args {
		if a.IsRef() {
			refs = append(refs, a.Ref)
		}
	}
	if len(refs) == 0 {
		return s.assign(s.spread(pool))
	}
	bestScore := -1
	var ties []simnet.NodeID
	for _, id := range pool {
		vm := s.threads[id].metrics.VM
		score := 0
		for _, r := range refs {
			if s.cacheKeys[vm][r] {
				score++
			}
		}
		if score > bestScore {
			bestScore, ties = score, ties[:0]
		}
		if score == bestScore {
			ties = append(ties, id)
		}
	}
	if len(ties) > 1 {
		return s.assign(s.spread(ties))
	}
	return s.assign(ties[0])
}

// pickView is a scheduler holding only what pickExecutor reads.
func pickView(seed int64, threads map[simnet.NodeID]threadInfo, cacheKeys map[string]map[string]bool, pins map[string][]simnet.NodeID) *Scheduler {
	return &Scheduler{
		k:            vtime.NewKernel(seed),
		threads:      threads,
		threadIDs:    slices.Sorted(maps.Keys(threads)),
		cacheKeys:    cacheKeys,
		pins:         pins,
		lastAssigned: make(map[simnet.NodeID]int64),
	}
}

// TestPickExecutorMatchesPerThreadScoring drives pickExecutor and the
// per-thread oracle through the same seeded random views and invocation
// sequences. The hoisted score is pure computation, so every pick, every
// assignment stamp and the kernel's next random draw must agree: a tie
// set that differs by one thread moves a draw, and with it every table.
func TestPickExecutorMatchesPerThreadScoring(t *testing.T) {
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	var singleWinner, allTie, multiTie int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// 2-6 VMs of 1-4 threads. Even seeds name threads so that
		// ascending ids keep a VM's threads adjacent (the real layout);
		// odd seeds interleave VMs, which the hoist must survive.
		threads := make(map[simnet.NodeID]threadInfo)
		cacheKeys := make(map[string]map[string]bool)
		vms := 2 + rng.Intn(5)
		for v := 0; v < vms; v++ {
			vm := fmt.Sprintf("vm%d", v)
			for i, n := 0, 1+rng.Intn(4); i < n; i++ {
				id := simnet.NodeID(fmt.Sprintf("exec-%s-%d", vm, i))
				if seed%2 == 1 {
					id = simnet.NodeID(fmt.Sprintf("exec-%d-%s", i, vm))
				}
				util := 0.0
				if rng.Intn(4) == 0 {
					util = 0.95 // over utilThreshold
				}
				threads[id] = threadInfo{metrics: core.ExecutorMetrics{Thread: id, VM: vm, Utilization: util}}
			}
			// Overlapping key sets; one VM in four has published no
			// cache metrics yet and is absent from cacheKeys. Every
			// tenth view has no cached key at all: all threads tie.
			if rng.Intn(4) == 0 {
				continue
			}
			set := make(map[string]bool)
			for _, k := range keys {
				if seed%10 != 0 && rng.Intn(3) == 0 {
					set[k] = true
				}
			}
			cacheKeys[vm] = set
		}
		ids := slices.Sorted(maps.Keys(threads))
		var pinned []simnet.NodeID
		for _, id := range ids {
			if rng.Intn(3) == 0 {
				pinned = append(pinned, id)
			}
		}
		pins := map[string][]simnet.NodeID{"f": pinned}

		got := pickView(seed, threads, cacheKeys, pins)
		want := pickView(seed, threads, cacheKeys, pins)

		for call := 0; call < 20; call++ {
			var args []core.Arg
			for i, n := 0, rng.Intn(5); i < n; i++ {
				args = append(args, core.Arg{Ref: keys[rng.Intn(len(keys))]})
			}
			if rng.Intn(3) == 0 {
				args = append(args, core.Arg{Val: []byte{7}})
			}
			var exclude map[simnet.NodeID]bool
			if rng.Intn(3) == 0 {
				exclude = make(map[simnet.NodeID]bool)
				for _, id := range ids {
					if rng.Intn(4) == 0 {
						exclude[id] = true
					}
				}
			}
			pinnedOnly := rng.Intn(3) == 0

			g := got.pickExecutor("f", args, exclude, pinnedOnly)
			w := want.pickExecutorPerThread("f", args, exclude, pinnedOnly)
			if g != w {
				t.Fatalf("seed %d call %d: picked %q, per-thread scoring picks %q", seed, call, g, w)
			}
			if got.assignSeq != want.assignSeq || !maps.Equal(got.lastAssigned, want.lastAssigned) {
				t.Fatalf("seed %d call %d: assignment stamps diverged", seed, call)
			}
			if len(got.pickScratch.refs) > 0 && g != "" {
				switch n := len(got.pickScratch.ties); {
				case n == 1:
					singleWinner++
				case n == len(ids):
					allTie++
				default:
					multiTie++
				}
			}
		}
		if g, w := got.k.Rand().Int63(), want.k.Rand().Int63(); g != w {
			t.Fatalf("seed %d: the kernel's random stream diverged (a tie set changed size)", seed)
		}
		got.k.Stop()
		want.k.Stop()
	}
	// The views must reach the shapes the hoist could get wrong.
	if singleWinner == 0 || allTie == 0 || multiTie == 0 {
		t.Fatalf("coverage: %d single-winner, %d all-tie, %d partial-tie picks; want each > 0", singleWinner, allTie, multiTie)
	}
}
