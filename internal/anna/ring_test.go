package anna

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"cloudburst/internal/simnet"
)

// walkOwners is the clockwise walk OwnersFor used to make per call: the
// first k distinct nodes from vnode i on, or every node when there are
// fewer. It is the oracle the ring's precomputed owner lists are held to.
func walkOwners(r *Ring, k, i int) []simnet.NodeID {
	var out []simnet.NodeID
	for n := 0; len(out) < k && n < len(r.vnodes); n++ {
		if v := r.vnodes[(i+n)%len(r.vnodes)]; !slices.Contains(out, v.node) {
			out = append(out, v.node)
		}
	}
	return out
}

// TestOwnerListsMatchClockwiseWalk is the differential test of the
// precomputed owner lists: over seeded random node lists passed to
// NewRing (repeats, k above the node count, the empty list), the ring
// holds each distinct node once with its vnodes, every vnode's list
// equals the clockwise walk, and OwnersFor returns its key's successor's
// list.
//
// A mutation this was seen to fail under: a list built from vnode i+1 on
// instead of i.
func TestOwnerListsMatchClockwiseWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var repeats, overK, empty int
	for trial := 0; trial < 200; trial++ {
		ids := make([]simnet.NodeID, rng.Intn(9))
		distinct := map[simnet.NodeID]bool{}
		for i := range ids {
			ids[i] = simnet.NodeID(fmt.Sprintf("n%d", rng.Intn(8)))
			distinct[ids[i]] = true
		}
		k, perNode := 1+rng.Intn(4), 1+rng.Intn(8)
		r := NewRing(k, perNode, ids)
		switch {
		case len(ids) == 0:
			empty++
		case len(distinct) < len(ids):
			repeats++
		}
		if k > len(distinct) {
			overK++
		}
		if want := slices.Sorted(maps.Keys(distinct)); !slices.Equal(r.nodes, want) || len(r.vnodes) != len(want)*perNode {
			t.Fatalf("trial %d: ring of %v has nodes %v and %d vnodes, want %v and %d", trial, ids, r.nodes, len(r.vnodes), want, len(want)*perNode)
		}
		if len(r.owners) != len(r.vnodes) {
			t.Fatalf("trial %d: %d owner lists for %d vnodes", trial, len(r.owners), len(r.vnodes))
		}
		for i := range r.vnodes {
			if got, want := r.owners[i], walkOwners(r, k, i); !slices.Equal(got, want) {
				t.Fatalf("trial %d: vnode %d owners %v, want the walk's %v", trial, i, got, want)
			}
		}
		for j := 0; j < 4 && len(r.vnodes) > 0; j++ {
			key := fmt.Sprintf("key-%d", rng.Intn(1000))
			if got, want := r.OwnersFor(key), walkOwners(r, k, r.successor(key)); !slices.Equal(got, want) {
				t.Fatalf("trial %d: OwnersFor(%q) = %v, want %v", trial, key, got, want)
			}
		}
	}
	if repeats == 0 || overK == 0 || empty == 0 {
		t.Fatalf("node lists too narrow: %d with repeats, %d with k above the node count, %d empty", repeats, overK, empty)
	}
}

// TestOwnersForAllocationFree: every Anna call looks its key's owners up,
// so a lookup reads the ring's precomputed list and allocates nothing.
func TestOwnersForAllocationFree(t *testing.T) {
	r := NewRing(3, 16, nodeIDs("n", 6))
	var owners []simnet.NodeID
	if n := testing.AllocsPerRun(100, func() { owners = r.OwnersFor("user:42:timeline") }); n != 0 || len(owners) != 3 {
		t.Fatalf("OwnersFor allocates %.0f times (%d owners), want 0 and 3", n, len(owners))
	}
}
