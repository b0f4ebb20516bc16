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
//   - storage-node autoscaling with key handoff;
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

// Ring is a consistent-hash ring with virtual nodes. All mutation happens
// under the cooperative kernel (one runnable process at a time), so no
// locking is needed.
type Ring struct {
	vnodes []vnode
	// owners[i] is the owner list of a key whose successor is vnodes[i],
	// rebuilt into fresh storage on every membership change and never
	// written after: a list handed out keeps the membership it was built
	// for.
	owners      [][]simnet.NodeID
	nodes       map[simnet.NodeID]bool
	replication int // replication factor k
	perNode     int // virtual nodes per physical node
}

// NewRing creates a ring with replication factor k and vnodesPerNode
// virtual nodes per storage node.
func NewRing(k, vnodesPerNode int) *Ring {
	if k < 1 {
		k = 1
	}
	if vnodesPerNode < 1 {
		vnodesPerNode = 16
	}
	return &Ring{
		nodes:       make(map[simnet.NodeID]bool),
		replication: k,
		perNode:     vnodesPerNode,
	}
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

// AddNode inserts a storage node's virtual nodes.
func (r *Ring) AddNode(id simnet.NodeID) {
	if r.nodes[id] {
		return
	}
	r.nodes[id] = true
	for i := 0; i < r.perNode; i++ {
		r.vnodes = append(r.vnodes, vnode{hash: hash64(fmt.Sprintf("%s#%d", id, i)), node: id})
	}
	sort.Slice(r.vnodes, func(i, j int) bool { return r.vnodes[i].hash < r.vnodes[j].hash })
	r.buildOwners()
}

// RemoveNode deletes a storage node from the ring.
func (r *Ring) RemoveNode(id simnet.NodeID) {
	if !r.nodes[id] {
		return
	}
	delete(r.nodes, id)
	kept := r.vnodes[:0]
	for _, v := range r.vnodes {
		if v.node != id {
			kept = append(kept, v)
		}
	}
	r.vnodes = kept
	r.buildOwners()
}

// buildOwners computes every vnode's owner list — the first k distinct
// nodes clockwise from it — into one fresh array, each list capped so an
// append by a reader cannot reach the next.
func (r *Ring) buildOwners() {
	k := min(r.replication, len(r.nodes))
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

// Nodes returns the member nodes in sorted order.
func (r *Ring) Nodes() []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(r.nodes))
	for id := range r.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size reports the number of physical nodes.
func (r *Ring) Size() int { return len(r.nodes) }

// OwnersFor returns the distinct storage nodes responsible for key, in
// preference order (primary first): the first k distinct nodes clockwise
// from the key's hash. The list is the ring's own and allocates nothing:
// callers must not write it. A membership change builds new lists, so a
// caller holding one across a blocking call keeps the old membership.
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
