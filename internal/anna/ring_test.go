package anna

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cloudburst/internal/simnet"
)

// walkOwners is the clockwise walk OwnersFor used to make per call: the
// first k distinct nodes from vnode i on. It is the oracle the ring's
// precomputed owner lists are held to.
func walkOwners(r *Ring, i int) []simnet.NodeID {
	k := min(r.replication, len(r.nodes))
	var out []simnet.NodeID
	for n := 0; len(out) < k && n < len(r.vnodes); n++ {
		if v := r.vnodes[(i+n)%len(r.vnodes)]; !slices.Contains(out, v.node) {
			out = append(out, v.node)
		}
	}
	return out
}

// TestOwnerListsMatchClockwiseWalk is the differential test of the
// precomputed owner lists: after every step of seeded random AddNode and
// RemoveNode sequences (repeats, removals of absent nodes, an emptied
// ring), every vnode's list equals the clockwise walk, OwnersFor returns
// its key's successor's list, and every list handed out before a change
// still holds what it held — a caller that keeps one across a blocking
// call sees the membership it started with.
//
// Mutations this was seen to fail under: RemoveNode not rebuilding the
// lists; rebuilding them into the previous storage; a list built from
// vnode i+1 on instead of i.
func TestOwnerListsMatchClockwiseWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	type held struct {
		list, was []simnet.NodeID
	}
	var steps, adds, removes, emptied int
	for trial := 0; trial < 40; trial++ {
		r := NewRing(1+rng.Intn(4), 1+rng.Intn(8))
		var handedOut []held
		for step := 0; step < 30; step++ {
			id := simnet.NodeID(fmt.Sprintf("n%d", rng.Intn(8)))
			if rng.Intn(3) == 0 {
				r.RemoveNode(id)
				removes++
			} else {
				r.AddNode(id)
				adds++
			}
			steps++
			if r.Size() == 0 {
				emptied++
			}
			if len(r.owners) != len(r.vnodes) {
				t.Fatalf("trial %d step %d: %d owner lists for %d vnodes", trial, step, len(r.owners), len(r.vnodes))
			}
			for i := range r.vnodes {
				if got, want := r.owners[i], walkOwners(r, i); !slices.Equal(got, want) {
					t.Fatalf("trial %d step %d: vnode %d owners %v, want the walk's %v", trial, step, i, got, want)
				}
			}
			for _, h := range handedOut {
				if !slices.Equal(h.list, h.was) {
					t.Fatalf("trial %d step %d: a list handed out earlier changed from %v to %v", trial, step, h.was, h.list)
				}
			}
			for j := 0; j < 4 && len(r.vnodes) > 0; j++ {
				key := fmt.Sprintf("key-%d", rng.Intn(1000))
				list := r.OwnersFor(key)
				if want := walkOwners(r, r.successor(key)); !slices.Equal(list, want) {
					t.Fatalf("trial %d step %d: OwnersFor(%q) = %v, want %v", trial, step, key, list, want)
				}
				handedOut = append(handedOut, held{list: list, was: slices.Clone(list)})
			}
		}
	}
	if adds == 0 || removes == 0 || emptied == 0 {
		t.Fatalf("histories too narrow: %d adds, %d removes, %d empty rings in %d steps", adds, removes, emptied, steps)
	}
}

// TestOwnersForAllocationFree: every Anna call looks its key's owners up,
// so a lookup reads the ring's precomputed list and allocates nothing.
func TestOwnersForAllocationFree(t *testing.T) {
	r := NewRing(3, 16)
	for i := 0; i < 6; i++ {
		r.AddNode(simnet.NodeID(fmt.Sprintf("n%d", i)))
	}
	var owners []simnet.NodeID
	if n := testing.AllocsPerRun(100, func() { owners = r.OwnersFor("user:42:timeline") }); n != 0 || len(owners) != 3 {
		t.Fatalf("OwnersFor allocates %.0f times (%d owners), want 0 and 3", n, len(owners))
	}
}
