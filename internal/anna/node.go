package anna

import (
	"slices"
	"time"

	"cloudburst/internal/hook"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// A storage node's calibrated service-time and cadence constants.
const (
	// getServiceTime and putServiceTime model per-operation server CPU
	// cost; requests on one node are served serially, so queueing delay
	// emerges under load.
	getServiceTime = 25 * time.Microsecond
	putServiceTime = 35 * time.Microsecond
	// diskPenalty is the extra latency for an operation that touches the
	// disk tier.
	diskPenalty = 1500 * time.Microsecond
	// gossipInterval is how often dirty keys are propagated to replicas.
	gossipInterval = 50 * time.Millisecond
	// pushInterval is how often dirty keys are pushed to subscribed
	// caches via the key→cache index (§4.2).
	pushInterval = 100 * time.Millisecond
	// serveBandwidth is the per-node value (de)serialization throughput
	// in bytes/second: large values cost server time proportional to
	// size, which is what separates cold cache misses from hot hits in
	// §6.1.2.
	serveBandwidth = 300e6
	// txnSweepInterval is how often a node with the sweep on tries to
	// resolve in-doubt prepared transactions from the commit log.
	txnSweepInterval = time.Second
	// txnPrepareTTL is how long a prepared transaction may wait for its
	// coordinator's decision before the sweep resolves it itself.
	txnPrepareTTL = 3 * time.Second
)

// NodeConfig carries what a deployment sets per storage node.
type NodeConfig struct {
	// MemCapacity bounds the memory tier in bytes; 0 means unbounded.
	MemCapacity int
	// TxnSweep runs the in-doubt transaction sweep. The cluster turns it
	// on in Transactional mode only, so every other mode's event schedule
	// is untouched by the txn plane.
	TxnSweep bool
	// Hooks is the cluster's fault-injection point-cut registry (nil
	// disables point-cuts at zero cost).
	Hooks *hook.Registry
}

// DefaultNodeConfig returns an unbounded memory tier with the sweep off;
// the calibrated service times are the constants above.
func DefaultNodeConfig() NodeConfig { return NodeConfig{} }

// Node is one Anna storage node: a serially-served lattice store with
// replica gossip, the Cloudburst key→cache index, and tiered storage.
// Requests and gossip dispatch through a serial simnet.Dispatcher, so
// per-operation service time queues at the node exactly as the paper's
// single-threaded storage servers do.
type Node struct {
	id   simnet.NodeID
	ep   *simnet.Endpoint
	k    *vtime.Kernel
	ring *Ring
	cfg  NodeConfig
	st   *tieredStore
	disp *simnet.Dispatcher

	// index maps each locally-owned key to the caches that reported
	// caching it, ascending, so a push tick sends in order without
	// sorting. A key with no subscriber left has no entry. Partitioned
	// across nodes with the key space.
	index map[string][]simnet.NodeID

	// Transaction participant state (see txn.go): prepared write sets
	// held outside the store (invisible to readers) and the per-key
	// prepare locks guarding them.
	prepared map[string]*preparedTxn
	locks    map[string]string // key → holding txn id
}

// NewNode creates (but does not start) a storage node bound to an
// endpoint.
func NewNode(k *vtime.Kernel, ep *simnet.Endpoint, ring *Ring, cfg NodeConfig) *Node {
	n := &Node{
		id:       ep.ID(),
		ep:       ep,
		k:        k,
		ring:     ring,
		cfg:      cfg,
		st:       newTieredStore(cfg.MemCapacity),
		index:    make(map[string][]simnet.NodeID),
		prepared: make(map[string]*preparedTxn),
		locks:    make(map[string]string),
	}
	n.disp = simnet.NewDispatcher(ep, string(n.id))
	simnet.OnRequest(n.disp, n.handleGet)
	simnet.OnRequest(n.disp, n.handleMultiGet)
	simnet.OnRequest(n.disp, n.handlePut)
	simnet.OnRequest(n.disp, n.handlePutIfAbsent)
	simnet.OnRequest(n.disp, n.handleDelete)
	simnet.OnRequest(n.disp, n.handleSetRemove)
	simnet.OnRequest(n.disp, n.handleTxnPrepare)
	simnet.OnMessage(n.disp, n.handleTxnDecision)
	simnet.OnMessage(n.disp, n.handleGossip)
	simnet.OnMessage(n.disp, n.handleKeyset)
	return n
}

// ID returns the node's network id.
func (n *Node) ID() simnet.NodeID { return n.id }

// Start launches the node's serve, gossip, and push processes.
func (n *Node) Start() {
	n.disp.Start()
	n.disp.Every("gossip", gossipInterval, n.gossipTick)
	n.disp.Every("push", pushInterval, n.pushTick)
	if n.cfg.TxnSweep {
		n.disp.Every("txn-sweep", txnSweepInterval, n.txnSweepTick)
	}
}

func (n *Node) handleGet(req *simnet.Request, b GetReq) {
	e, fromDisk := n.st.get(b.Key, n.k.Now())
	if e == nil {
		n.k.Sleep(serviceTime(getServiceTime, fromDisk, 0))
		req.Reply(GetResp{Key: b.Key, Found: false}, 24)
		return
	}
	n.k.Sleep(serviceTime(getServiceTime, fromDisk, e.size))
	req.Reply(GetResp{Key: b.Key, Lat: e.lat, Found: true}, 24+e.size)
}

func (n *Node) handleMultiGet(req *simnet.Request, b *MultiGetReq) {
	// One round trip, full per-key service cost: batching saves
	// network round trips and per-request overhead, not server CPU.
	var svc time.Duration
	size := 24
	for i, key := range b.Keys {
		e, fromDisk := n.st.get(key, n.k.Now())
		if e == nil {
			svc += serviceTime(getServiceTime, fromDisk, 0)
			continue
		}
		svc += serviceTime(getServiceTime, fromDisk, e.size)
		b.Lats[i] = e.lat
		size += 24 + e.size
	}
	n.k.Sleep(svc)
	req.Reply(MultiGetResp{}, size)
}

func (n *Node) handlePut(req *simnet.Request, b PutReq) {
	e, fromDisk := n.st.merge(b.Key, b.Lat, n.k.Now())
	n.st.markDirty(e, forRepl, forPush)
	n.k.Sleep(serviceTime(putServiceTime, fromDisk, e.size))
	req.Reply(PutResp{OK: true}, 8)
}

func (n *Node) handlePutIfAbsent(req *simnet.Request, b PutIfAbsentReq) {
	if e, fromDisk := n.st.get(b.Key, n.k.Now()); e != nil {
		n.k.Sleep(serviceTime(getServiceTime, fromDisk, e.size))
		req.Reply(PutIfAbsentResp{Held: e.lat}, 8+e.size)
		return
	}
	n.handlePut(req, PutReq(b))
}

func (n *Node) handleDelete(req *simnet.Request, b DeleteReq) {
	ok := n.st.delete(b.Key)
	n.k.Sleep(serviceTime(putServiceTime, false, 0))
	req.Reply(DeleteResp{OK: ok}, 8)
}

func (n *Node) handleSetRemove(req *simnet.Request, b SetRemoveReq) {
	e, fromDisk := n.st.get(b.Key, n.k.Now())
	removed := false
	if e != nil {
		if s, isSet := e.lat.(*lattice.Set); isSet {
			// A new value replaces the stored one, so a reader holding the
			// old set keeps it. The dirty flags stay untouched: the client
			// reaches every owner itself, and pushing a shrunken set to
			// replicas or caches would be a union no-op anyway.
			if kept := s.Without(b.Elems); kept != s {
				e.lat = kept
				n.st.resize(e)
				removed = true
			}
		}
	}
	n.k.Sleep(serviceTime(putServiceTime, fromDisk, 0))
	req.Reply(SetRemoveResp{OK: removed}, 8)
}

func (n *Node) handleGossip(_ simnet.Message, b GossipMsg) {
	e, _ := n.st.merge(b.Key, b.Lat, n.k.Now())
	// Replicas do not re-gossip (the writer reaches all owners),
	// but must push to their own subscribed caches.
	n.st.markDirty(e, forPush)
	n.k.Sleep(putServiceTime)
}

func (n *Node) handleKeyset(_ simnet.Message, b KeysetUpdate) { n.applyKeyset(b) }

// serviceTime is an operation's server time: its base cost, the disk
// penalty when it touched the disk tier, and size bytes at serveBandwidth.
func serviceTime(base time.Duration, disk bool, size int) time.Duration {
	d := base
	if disk {
		d += diskPenalty
	}
	if size > 0 {
		d += time.Duration(float64(size) / serveBandwidth * float64(time.Second))
	}
	return d
}

func (n *Node) applyKeyset(u KeysetUpdate) {
	for _, key := range u.Added {
		n.subscribe(key, u.Cache)
	}
	for _, key := range u.Removed {
		subs := n.index[key]
		at, found := slices.BinarySearch(subs, u.Cache)
		switch {
		case !found:
		case len(subs) == 1:
			delete(n.index, key)
		default:
			n.index[key] = slices.Delete(subs, at, at+1)
		}
	}
}

func (n *Node) subscribe(key string, cache simnet.NodeID) {
	subs := n.index[key]
	if at, found := slices.BinarySearch(subs, cache); !found {
		n.index[key] = slices.Insert(subs, at, cache)
	}
}

// gossipTick propagates dirty keys to the other owners — Anna's
// asynchronous replica propagation, run on the gossip cadence.
func (n *Node) gossipTick() {
	n.st.drainDirty(forRepl, func(e *entry) {
		for _, owner := range n.ring.OwnersFor(e.key) {
			if owner == n.id {
				continue
			}
			n.ep.Send(owner, GossipMsg{Key: e.key, Lat: e.lat}, 24+e.size)
		}
	})
}

// pushTick sends updated keys to their subscribed caches (§4.2).
func (n *Node) pushTick() {
	n.st.drainDirty(forPush, func(e *entry) {
		for _, cache := range n.index[e.key] {
			n.ep.Send(cache, KeyUpdatePush{Key: e.key, Lat: e.lat}, 24+e.size)
		}
	})
}

// IndexOverheads returns the per-key index metadata size in bytes for
// every indexed key on this node — the quantity §6.1.4 reports the
// median/p99 of.
func (n *Node) IndexOverheads() []int {
	out := make([]int, 0, len(n.index))
	for _, subs := range n.index {
		b := 0
		for _, c := range subs {
			b += len(c) + 4
		}
		out = append(out, b)
	}
	return out
}

// StoredKeys returns the number of keys on the node (test hook).
func (n *Node) StoredKeys() int { return n.st.totalKeys() }

// CausalMetadataSizes samples the causal metadata overhead (vector
// clocks plus dependency sets) of every causal capsule stored on this
// node — the §6.2.1 measurement (median 624B, p99 7.1KB in the paper).
func (n *Node) CausalMetadataSizes() []int {
	var out []int
	n.st.each(func(e *entry, onDisk bool) {
		if c, ok := e.lat.(*lattice.Causal); ok {
			out = append(out, c.MetadataSize())
		}
	})
	return out
}

// HasKey reports whether key is stored locally, and on which tier.
func (n *Node) HasKey(key string) (exists, onDisk bool) {
	if _, ok := n.st.mem[key]; ok {
		return true, false
	}
	if _, ok := n.st.disk[key]; ok {
		return true, true
	}
	return false, false
}
