package anna

import (
	"fmt"

	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// vnodesPerNode is the ring's partitioning granularity: virtual nodes
// per storage node.
const vnodesPerNode = 32

// Config sizes an Anna deployment.
type Config struct {
	// Nodes is the storage-node count, fixed at boot.
	Nodes int
	// Replication is the replication factor k (§4.5: Anna's replication
	// provides k-fault tolerance).
	Replication int
	// Node holds the per-node settings.
	Node NodeConfig
}

// DefaultConfig returns a small in-simulation deployment.
func DefaultConfig() Config {
	return Config{
		Nodes:       3,
		Replication: 1,
		Node:        DefaultNodeConfig(),
	}
}

// KVS is the deployed Anna cluster: the ring and the storage nodes,
// both fixed when it boots.
type KVS struct {
	k     *vtime.Kernel
	ring  *Ring
	nodes []*Node // in ID string order
	byID  map[simnet.NodeID]*Node
}

// NewKVS boots an Anna cluster of storage nodes anna-0 to anna-N-1 on the
// given network.
func NewKVS(k *vtime.Kernel, net *simnet.Network, cfg Config) *KVS {
	ids := make([]simnet.NodeID, max(cfg.Nodes, 1))
	for i := range ids {
		ids[i] = simnet.NodeID(fmt.Sprintf("anna-%d", i))
	}
	kv := &KVS{
		k:    k,
		ring: NewRing(cfg.Replication, vnodesPerNode, ids),
		byID: make(map[simnet.NodeID]*Node, len(ids)),
	}
	for _, id := range ids {
		n := NewNode(k, net.AddNode(id), kv.ring, cfg.Node)
		kv.byID[id] = n
		n.Start()
	}
	for _, id := range kv.ring.nodes {
		kv.nodes = append(kv.nodes, kv.byID[id])
	}
	return kv
}

// Ring exposes the hash ring (clients use it for routing; the paper's
// standalone routing tier is folded into the client, which caches the
// same information).
func (kv *KVS) Ring() *Ring { return kv.ring }

// Nodes returns the storage nodes in ID string order (anna-10 before
// anna-2). The slice is the KVS's own: callers must not write it.
func (kv *KVS) Nodes() []*Node { return kv.nodes }

// Preload inserts a key directly into its owners' stores, bypassing the
// network. Experiment setup only: the paper's workloads preload a
// million keys, which would otherwise dominate both simulated and real
// time.
func (kv *KVS) Preload(key string, lat lattice.Lattice) {
	for _, o := range kv.ring.OwnersFor(key) {
		kv.byID[o].st.merge(key, lat, kv.k.Now())
	}
}

// Unsubscribe applies at each key's primary owner the removal of cache a
// KeysetUpdate carries. Like Preload it bypasses the network: a message
// would shift the random stream for an update that changes no delivery.
func (kv *KVS) Unsubscribe(cache simnet.NodeID, keys []string) {
	for i, key := range keys {
		kv.byID[kv.ring.PrimaryFor(key)].applyKeyset(KeysetUpdate{Cache: cache, Removed: keys[i : i+1]})
	}
}

// IndexOverheads gathers per-key index sizes across all nodes (Figure 7's
// index-overhead measurement).
func (kv *KVS) IndexOverheads() []int {
	var out []int
	for _, n := range kv.nodes {
		out = append(out, n.IndexOverheads()...)
	}
	return out
}

// TotalKeys reports the number of stored keys across nodes (replicas
// counted once per node).
func (kv *KVS) TotalKeys() int {
	total := 0
	for _, n := range kv.nodes {
		total += n.StoredKeys()
	}
	return total
}
