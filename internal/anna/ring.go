// Package anna is a from-scratch reproduction of the Anna KVS at the
// level of detail Cloudburst depends on (§2.2, §4.2 of the Cloudburst
// paper; design from Wu et al., "Anna: A KVS for Any Scale" and
// "Autoscaling Tiered Cloud Storage in Anna"):
//
//   - lattice values with merge-on-put, so all replicas converge
//     coordination-free;
//   - consistent-hash partitioning with virtual nodes and replication
//     factor k;
//   - asynchronous replica propagation (gossip);
//   - a memory tier with LRU demotion to a slower disk tier;
//   - the Cloudburst extension: a key→cache index built from periodic
//     cached-keyset snapshots, used to push key updates to subscribed
//     caches, partitioned across nodes like the key space.
package anna

import (
	"fmt"
	"slices"
	"sort"

	"cloudburst/internal/simnet"
)

// vnode is one virtual node position on the hash ring.
type vnode struct {
	hash uint64
	node simnet.NodeID
}

// Ring is a consistent-hash ring with virtual nodes over a membership
// fixed when it is built. Nothing writes it after NewRing, so it is
// shared without locking.
type Ring struct {
	vnodes []vnode
	// owners[i] is the owner list of a key whose successor is vnodes[i],
	// all built by NewRing into one array.
	owners [][]simnet.NodeID
	nodes  []simnet.NodeID // the members, distinct and in string order
}

// NewRing builds the ring of the given storage nodes with replication
// factor k and perNode virtual nodes per storage node. A repeated node
// counts once, and the order of nodes does not matter.
func NewRing(k, perNode int, nodes []simnet.NodeID) *Ring {
	if perNode < 1 {
		perNode = 16
	}
	r := &Ring{nodes: slices.Compact(slices.Sorted(slices.Values(nodes)))}
	for _, id := range r.nodes {
		for i := 0; i < perNode; i++ {
			r.vnodes = append(r.vnodes, vnode{hash: hash64(fmt.Sprintf("%s#%d", id, i)), node: id})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool { return r.vnodes[i].hash < r.vnodes[j].hash })
	r.buildOwners(min(max(k, 1), len(r.nodes)))
	return r
}

// hash64 is FNV-1a (hash/fnv's New64a, inlined so a lookup allocates
// neither a hasher nor a byte copy of the key) with a scattering finish.
func hash64(s string) uint64 {
	x := uint64(14695981039346656037) // FNV offset basis
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= 1099511628211 // FNV prime
	}
	// FNV clusters badly on short, similar strings ("key-1", "key-2",
	// ...), which skews ring placement; finish with murmur3's fmix64 to
	// scatter the bits across the full 64-bit space.
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// buildOwners computes every vnode's owner list — the first k distinct
// nodes clockwise from it — into one array, each list capped so an
// append by a reader cannot reach the next.
func (r *Ring) buildOwners(k int) {
	all := make([]simnet.NodeID, 0, len(r.vnodes)*k)
	r.owners = make([][]simnet.NodeID, len(r.vnodes))
	for i := range r.vnodes {
		lo := len(all)
		for n := 0; len(all)-lo < k && n < len(r.vnodes); n++ {
			v := r.vnodes[(i+n)%len(r.vnodes)]
			if !slices.Contains(all[lo:], v.node) { // k is a handful: a scan beats a set
				all = append(all, v.node)
			}
		}
		r.owners[i] = all[lo:len(all):len(all)]
	}
}

// Size reports the number of physical nodes.
func (r *Ring) Size() int { return len(r.nodes) }

// OwnersFor returns the distinct storage nodes responsible for key, in
// preference order (primary first): the first k distinct nodes clockwise
// from the key's hash. The list is the ring's own and allocates nothing:
// callers must not write it.
func (r *Ring) OwnersFor(key string) []simnet.NodeID {
	if len(r.vnodes) == 0 {
		return nil
	}
	return r.owners[r.successor(key)]
}

// successor returns the index of the first vnode clockwise from key's
// hash; the ring must not be empty.
func (r *Ring) successor(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	return i % len(r.vnodes)
}

// PrimaryFor returns the first owner for key, OwnersFor(key)[0].
func (r *Ring) PrimaryFor(key string) simnet.NodeID {
	if len(r.vnodes) == 0 {
		return ""
	}
	return r.vnodes[r.successor(key)].node
}
