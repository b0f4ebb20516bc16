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
	// Nodes is the initial storage-node count.
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

// KVS is the deployed Anna cluster: the ring and the storage nodes.
// Storage autoscaling is exposed as AddNode/RemoveNode, invoked by
// callers' policies.
type KVS struct {
	k     *vtime.Kernel
	net   *simnet.Network
	ring  *Ring
	cfg   Config
	nodes map[simnet.NodeID]*Node
	next  int

	// ScaleEvents records node additions/removals for reports.
	ScaleEvents []string
}

// NewKVS boots an Anna cluster on the given network.
func NewKVS(k *vtime.Kernel, net *simnet.Network, cfg Config) *KVS {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	kv := &KVS{
		k:     k,
		net:   net,
		ring:  NewRing(cfg.Replication, vnodesPerNode),
		cfg:   cfg,
		nodes: make(map[simnet.NodeID]*Node),
	}
	for i := 0; i < cfg.Nodes; i++ {
		kv.addNodeNoRebalance()
	}
	return kv
}

// Ring exposes the hash ring (clients use it for routing; the paper's
// standalone routing tier is folded into the client, which caches the
// same information).
func (kv *KVS) Ring() *Ring { return kv.ring }

// Nodes returns the live storage nodes.
func (kv *KVS) Nodes() []*Node {
	out := make([]*Node, 0, len(kv.nodes))
	for _, id := range kv.ring.Nodes() {
		if n, ok := kv.nodes[id]; ok {
			out = append(out, n)
		}
	}
	return out
}

func (kv *KVS) addNodeNoRebalance() *Node {
	id := simnet.NodeID(fmt.Sprintf("anna-%d", kv.next))
	kv.next++
	ep := kv.net.AddNode(id)
	n := NewNode(kv.k, ep, kv.ring, kv.cfg.Node)
	kv.nodes[id] = n
	kv.ring.AddNode(id)
	n.Start()
	return n
}

// AddNode grows the cluster by one storage node and rebalances key
// ownership onto it. Must be called from a kernel process.
func (kv *KVS) AddNode() simnet.NodeID {
	n := kv.addNodeNoRebalance()
	kv.rebalance()
	kv.ScaleEvents = append(kv.ScaleEvents, fmt.Sprintf("t=%v add %s", kv.k.Now(), n.ID()))
	return n.ID()
}

// RemoveNode drains a storage node's keys to their new owners and takes
// it out of service. Removing an unknown node does nothing; the last
// node is refused with an error, the ring and the node untouched: its
// keys would have no owner to drain to.
func (kv *KVS) RemoveNode(id simnet.NodeID) error {
	n, ok := kv.nodes[id]
	if !ok {
		return nil
	}
	if kv.ring.Size() == 1 {
		return fmt.Errorf("anna: remove %s: the last storage node", id)
	}
	kv.ring.RemoveNode(id)
	n.transferForRing() // node owns nothing now: everything drains
	n.Stop()
	delete(kv.nodes, id)
	kv.ScaleEvents = append(kv.ScaleEvents, fmt.Sprintf("t=%v remove %s", kv.k.Now(), id))
	return nil
}

// rebalance asks every node to migrate keys per the current ring, in
// deterministic order.
func (kv *KVS) rebalance() {
	for _, n := range kv.Nodes() {
		n.transferForRing()
	}
}

// Preload inserts a key directly into its owners' stores, bypassing the
// network. Experiment setup only: the paper's workloads preload a
// million keys, which would otherwise dominate both simulated and real
// time.
func (kv *KVS) Preload(key string, lat lattice.Lattice) {
	for _, o := range kv.ring.OwnersFor(key) {
		if n, ok := kv.nodes[o]; ok {
			n.st.merge(key, lat, kv.k.Now())
		}
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
