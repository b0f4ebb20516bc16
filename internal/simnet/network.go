// Package simnet is the simulated datacenter network the Cloudburst
// reproduction runs on: virtual-time message delivery over one link
// model (latency and bandwidth), NIC contention (each receiver's queue
// serves it in send order, which alone keeps every link FIFO), fault
// injection (per-link and per-node policies: probabilistic drops, added
// latency and jitter, duplication, full partitions), synchronous RPC,
// and a typed dispatch layer (Dispatcher) that server components
// register handlers with instead of writing receive loops by hand.
//
// Faults are dynamic overlays on the static Link model: SetLinkPolicy
// degrades one direction of one link, SetNodePolicy degrades every
// message into or out of a node, and SetDown is the thin full-drop
// special case (the §4.5 VM-failure model). The internal/fault package
// schedules these on the virtual clock as declarative plans.
//
// The data path is amortized allocation-free: every message or RPC reply
// travels in a pooled delivery event (no per-send closures), RPC Request
// records and their reply channels are recycled across calls, and the
// kernel underneath pools timers and goroutines. Replaying minutes of
// cluster traffic therefore costs milliseconds of real time, which the
// paper-figure experiments depend on.
package simnet

import (
	"fmt"
	"time"

	"cloudburst/internal/vtime"
)

// NodeID names a network endpoint.
type NodeID string

// Message is one delivered datagram.
type Message struct {
	From    NodeID
	Payload any
	SentAt  vtime.Time
	// ArrivedAt is stamped when the datagram lands in the destination
	// inbox. Like SentAt it is CPU-side delivery metadata, not wire
	// content: the tracing plane reads [SentAt, ArrivedAt] as the
	// simulated network flight and [ArrivedAt, handler start] as inbox
	// queueing, without perturbing the byte schedule.
	ArrivedAt vtime.Time
}

// Link describes the path between two nodes.
type Link struct {
	Latency   LatencyModel
	Bandwidth float64 // bytes/second; 0 means unlimited
}

// transfer returns the serialization/transfer time for size bytes.
func (l Link) transfer(size int) time.Duration {
	if l.Bandwidth <= 0 || size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / l.Bandwidth * float64(time.Second))
}

// LinkPolicy is a dynamic fault overlay on message delivery: drop
// probability, deterministic extra latency, uniform jitter, and
// duplication probability. Policies compose — a message is subject to
// the sender's node policy, the receiver's node policy, and the
// directed link's policy, all at once. The zero value is "healthy".
//
// Duplication applies to one-way datagrams only: RPC requests and
// replies ride pooled at-most-once records (see Request), so a
// duplicated RPC would either trip the duplicate-Reply guard or land in
// a recycled reply channel. A full-drop (Drop >= 1) node policy also
// applies to messages already in flight when it is installed — a
// crashed receiver loses its queued traffic, which is what makes
// SetDown a thin wrapper over this type.
type LinkPolicy struct {
	Drop         float64       // probability a message vanishes (>= 1: always)
	ExtraLatency time.Duration // deterministic one-way latency added
	Jitter       time.Duration // extra uniform random latency in [0, Jitter)
	Duplicate    float64       // probability a datagram is delivered twice
}

// IsZero reports whether the policy is the healthy no-op.
func (p LinkPolicy) IsZero() bool {
	return p.Drop == 0 && p.ExtraLatency == 0 && p.Jitter == 0 && p.Duplicate == 0
}

// combine composes two policies: independent drop/duplicate draws
// (complement product) and summed latency terms.
func (p LinkPolicy) combine(q LinkPolicy) LinkPolicy {
	return LinkPolicy{
		Drop:         1 - (1-p.Drop)*(1-q.Drop),
		ExtraLatency: p.ExtraLatency + q.ExtraLatency,
		Jitter:       p.Jitter + q.Jitter,
		Duplicate:    1 - (1-p.Duplicate)*(1-q.Duplicate),
	}
}

// node holds per-endpoint state.
type node struct {
	id    NodeID
	inbox *vtime.Chan[Message]
	// nicFreeAt models the receiver's shared ingress capacity: payload
	// transfer time is serialized at the destination NIC, so ten
	// parallel large fetches to one machine contend (the §6.1.2
	// cache-miss path depends on this). It also keeps each link FIFO.
	nicFreeAt vtime.Time
	// closed guards Endpoint.Close idempotence (vtime.Chan panics on a
	// double close).
	closed bool
}

// Network is a simulated datacenter network. All methods must be called
// from kernel processes (or between kernel runs for setup).
type Network struct {
	k     *vtime.Kernel
	link  Link // every direction's latency and bandwidth
	nodes map[NodeID]*node

	// Fault overlays (see LinkPolicy). Empty maps are the fast path: the
	// delivery code skips all policy work (and consumes no extra random
	// draws) until the first policy is installed, so fault-free runs stay
	// byte-identical to the pre-fault network.
	linkPolicies map[[2]NodeID]LinkPolicy
	nodePolicies map[NodeID]LinkPolicy

	// Free lists: as many deliveries as were ever in flight at once, and
	// the requests of answered calls (a timed-out call's never returns).
	freeDeliveries vtime.FreeList[*delivery]
	freeReqs       vtime.FreeList[*Request]

	// Stats.
	MessagesSent  int64
	BytesSent     int64
	MessagesDropt int64
	MessagesDuped int64
}

// New creates a network whose every direction uses link.
func New(k *vtime.Kernel, link Link) *Network {
	return &Network{
		k:            k,
		link:         link,
		nodes:        make(map[NodeID]*node),
		linkPolicies: make(map[[2]NodeID]LinkPolicy),
		nodePolicies: make(map[NodeID]LinkPolicy),
	}
}

// AddNode registers id and returns its endpoint handle. Adding an existing
// id panics: node identity is load-bearing for the receiver queue.
func (n *Network) AddNode(id NodeID) *Endpoint {
	if _, ok := n.nodes[id]; ok {
		panic(fmt.Sprintf("simnet: duplicate node %q", id))
	}
	nd := &node{id: id, inbox: vtime.NewChan[Message](n.k, -1)}
	n.nodes[id] = nd
	return &Endpoint{net: n, node: nd}
}

// RemoveNode deletes a node; in-flight messages to it are dropped on
// arrival.
func (n *Network) RemoveNode(id NodeID) { delete(n.nodes, id) }

// Registered reports whether id is a node of the network.
func (n *Network) Registered(id NodeID) bool { _, ok := n.nodes[id]; return ok }

// NodeCount reports how many nodes are currently registered — the
// lifecycle tests use it to assert that crash/restart cycles retire the
// dead generation's endpoints instead of leaking them.
func (n *Network) NodeCount() int { return len(n.nodes) }

// SetLinkPolicy installs a fault overlay on the from→to direction only
// (asymmetric partitions and flaky links are built from these). A zero
// policy clears the entry.
func (n *Network) SetLinkPolicy(from, to NodeID, p LinkPolicy) {
	key := [2]NodeID{from, to}
	if p.IsZero() {
		delete(n.linkPolicies, key)
		return
	}
	n.linkPolicies[key] = p
}

// ClearLinkPolicy removes the from→to fault overlay.
func (n *Network) ClearLinkPolicy(from, to NodeID) { delete(n.linkPolicies, [2]NodeID{from, to}) }

// SetNodePolicy installs a fault overlay on every message into or out of
// id. A zero policy clears the entry.
func (n *Network) SetNodePolicy(id NodeID, p LinkPolicy) {
	if p.IsZero() {
		delete(n.nodePolicies, id)
		return
	}
	n.nodePolicies[id] = p
}

// ClearNodePolicy removes id's fault overlay.
func (n *Network) ClearNodePolicy(id NodeID) { delete(n.nodePolicies, id) }

// Down reports whether id carries a full-drop node policy.
func (n *Network) Down(id NodeID) bool { return n.nodePolicies[id].Drop >= 1 }

// SetDown marks a node unreachable (true) or reachable (false) — a thin
// wrapper that installs (or clears) a full-drop node policy, the same
// mechanism fault plans use for partial failures. Messages to or from a
// down node are silently dropped, so RPCs to it time out — the failure
// mode §4.5 recovers from.
func (n *Network) SetDown(id NodeID, down bool) {
	if _, ok := n.nodes[id]; !ok {
		return
	}
	if down {
		n.SetNodePolicy(id, LinkPolicy{Drop: 1})
	} else {
		n.ClearNodePolicy(id)
	}
}

// policyFor resolves the composed fault overlay for one transmission;
// active is false (and no random draws are consumed) when no overlay
// touches the pair.
func (n *Network) policyFor(from, to NodeID) (pol LinkPolicy, active bool) {
	if len(n.nodePolicies) == 0 && len(n.linkPolicies) == 0 {
		return LinkPolicy{}, false
	}
	if q, ok := n.nodePolicies[from]; ok {
		pol, active = q, true
	}
	if q, ok := n.nodePolicies[to]; ok {
		if active {
			pol = pol.combine(q)
		} else {
			pol, active = q, true
		}
	}
	if q, ok := n.linkPolicies[[2]NodeID{from, to}]; ok {
		if active {
			pol = pol.combine(q)
		} else {
			pol, active = q, true
		}
	}
	return pol, active
}

// delivery is one in-flight transmission: a pooled timer event carrying
// either an inbox datagram (reply == nil) or an RPC response headed for a
// private reply channel. Pooling these replaces the per-send closure
// chain the delivery path used to allocate.
type delivery struct {
	n     *Network
	to    NodeID
	msg   Message          // inbox payload, when reply is nil
	reply *vtime.Chan[any] // RPC reply channel, when non-nil
	resp  any              // RPC response value
}

// Fire implements vtime.Event: the scheduled arrival at the destination.
// A receiver that went fully down while the message was in flight loses
// it on arrival (probabilistic policies are applied once, at send time).
func (d *delivery) Fire() {
	n := d.n
	dst, ok := n.nodes[d.to]
	switch {
	case !ok || n.Down(d.to):
		n.MessagesDropt++
	case d.reply != nil:
		d.reply.Send(d.resp)
	default:
		d.msg.ArrivedAt = n.k.Now()
		dst.inbox.Send(d.msg)
	}
	n.releaseDelivery(d)
}

func (n *Network) getDelivery() *delivery {
	if d, ok := n.freeDeliveries.Get(); ok {
		return d
	}
	return &delivery{n: n}
}

func (n *Network) releaseDelivery(d *delivery) {
	d.to = ""
	d.msg = Message{}
	d.reply = nil
	d.resp = nil
	n.freeDeliveries.Put(d)
}

// Send delivers payload from→to after the link's latency plus bandwidth
// transfer time. It never blocks the sender: delivery is scheduled as a
// kernel timer and lands in the destination's unbounded inbox.
func (n *Network) Send(from, to NodeID, payload any, size int) {
	d := n.getDelivery()
	d.msg = Message{From: from, Payload: payload, SentAt: n.k.Now()}
	n.deliver(from, to, size, d)
}

// deliver schedules d's arrival with full path modeling: fault overlay,
// link latency, and receiver-NIC transfer serialization, whose queue
// also keeps each link FIFO.
func (n *Network) deliver(from, to NodeID, size int, d *delivery) {
	// Fault overlay. A fully-down node neither receives nor sends:
	// without the outbound drop, a "killed" VM's daemons would keep
	// publishing fresh metrics and the failure would be invisible to the
	// schedulers.
	pol, faulty := n.policyFor(from, to)
	if faulty && pol.Drop > 0 {
		if pol.Drop >= 1 || n.k.Rand().Float64() < pol.Drop {
			n.MessagesDropt++
			n.releaseDelivery(d)
			return
		}
	}
	n.MessagesSent++
	n.BytesSent += int64(size)
	propagation := n.link.Latency.Sample(n.k.Rand())
	if faulty {
		propagation += pol.ExtraLatency
		if pol.Jitter > 0 {
			propagation += time.Duration(n.k.Rand().Int63n(int64(pol.Jitter)))
		}
	}
	transfer := n.link.transfer(size)

	arrival := n.k.Now().Add(propagation)
	if dst, ok := n.nodes[to]; ok {
		// Shared ingress: large payloads queue at the receiver's NIC.
		if arrival < dst.nicFreeAt {
			arrival = dst.nicFreeAt
		}
		arrival = arrival.Add(transfer)
		dst.nicFreeAt = arrival
	} else {
		arrival = arrival.Add(transfer)
	}
	d.to = to
	n.k.AfterEvent(arrival.Sub(n.k.Now()), d)
	if faulty && pol.Duplicate > 0 && d.reply == nil {
		if _, isReq := d.msg.Payload.(*Request); !isReq && n.k.Rand().Float64() < pol.Duplicate {
			// Datagram duplication: a second copy arrives after an
			// independent latency draw (duplicates may reorder, as on a
			// real retransmitting network). RPC traffic is exempt — see
			// the LinkPolicy comment.
			dup := n.getDelivery()
			dup.to, dup.msg = d.to, d.msg
			n.MessagesDuped++
			n.k.AfterEvent(arrival.Sub(n.k.Now())+n.link.Latency.Sample(n.k.Rand()), dup)
		}
	}
}

// Endpoint is a node's handle for sending and receiving.
type Endpoint struct {
	net  *Network
	node *node
}

// ID returns the endpoint's node id.
func (e *Endpoint) ID() NodeID { return e.node.id }

// Send transmits payload to another node.
func (e *Endpoint) Send(to NodeID, payload any, size int) {
	e.net.Send(e.node.id, to, payload, size)
}

// Recv blocks until a message arrives.
func (e *Endpoint) Recv() Message {
	m, _ := e.node.inbox.Recv()
	return m
}

// RecvTimeout receives with a deadline.
func (e *Endpoint) RecvTimeout(d time.Duration) (Message, bool) {
	m, _, timedOut := e.node.inbox.RecvTimeout(d)
	return m, !timedOut
}

// TryRecv receives without blocking. A closed-and-drained inbox reports
// nothing available (not the zero-Message closed indication), so drain
// loops on a reaped endpoint terminate instead of spinning.
func (e *Endpoint) TryRecv() (Message, bool) {
	m, ok, got := e.node.inbox.TryRecv()
	return m, got && ok
}

// Close shuts the endpoint's inbox: parked receivers wake immediately
// with a zero Message, which lets a stopped Dispatcher's serve loop exit
// instead of parking forever. The generation reaper calls this after
// RemoveNode, so in-flight deliveries drop at the (now absent) node
// rather than landing in a closed inbox. Close is idempotent.
func (e *Endpoint) Close() {
	if e.node.closed {
		return
	}
	e.node.closed = true
	e.node.inbox.Close()
}
