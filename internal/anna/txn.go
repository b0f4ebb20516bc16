package anna

// Transaction participant: each storage node validates and locks the
// subset of a transaction's write set it owns (prepare), then installs
// or discards it on the coordinator's decision. Prepared items live in
// a side table, never in the tiered store, so no reader under any
// consistency mode can observe an uncommitted write. A periodic sweep
// resolves transactions orphaned by a dead coordinator from the commit
// log in Anna itself: found on any log owner → commit (or abort, if a
// different attempt won), affirmatively absent everywhere → presumed
// abort, any log owner unreachable → stay in doubt and retry.

import (
	"sort"
	"time"

	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/txn"
	"cloudburst/internal/vtime"
)

// preparedTxn is one in-doubt transaction on this node.
type preparedTxn struct {
	txnID string
	reqID string
	clock int64
	node  uint64
	items []core.TxnWrite
	at    vtime.Time
}

func (n *Node) handleTxnPrepare(req *simnet.Request, b txn.PrepareReq) {
	if _, ok := n.prepared[b.TxnID]; ok {
		// Duplicate prepare (coordinator retry): the earlier vote stands.
		n.k.Sleep(putServiceTime)
		req.Reply(txn.PrepareResp{Vote: true}, 16)
		return
	}
	// Validate every item first, then lock atomically — a conflict votes
	// no and takes nothing, so there is no blocking and no distributed
	// deadlock, only aborts.
	reason := ""
	payloadBytes := 0
	for _, it := range b.Items {
		payloadBytes += len(it.Payload)
		if holder, locked := n.locks[it.Key]; locked && holder != b.TxnID {
			reason = "key " + it.Key + " prepared by another txn"
			break
		}
		if it.Blind {
			continue
		}
		e, _ := n.st.get(it.Key, n.k.Now())
		switch {
		case e == nil:
			if it.BasePresent {
				reason = "key " + it.Key + " disappeared since read"
			}
		case !it.BasePresent:
			reason = "key " + it.Key + " appeared since read"
		default:
			l, isLWW := e.lat.(*lattice.LWW)
			if !isLWW {
				reason = "key " + it.Key + " holds " + e.lat.TypeName()
			} else if l.TS.Clock != it.BaseClock || l.TS.Node != it.BaseNode {
				reason = "key " + it.Key + " changed since read"
			}
		}
		if reason != "" {
			break
		}
	}
	if reason != "" {
		// Presumed abort: a no vote keeps no state.
		n.k.Sleep(putServiceTime)
		req.Reply(txn.PrepareResp{Vote: false, Reason: reason}, 16+len(reason))
		return
	}
	for _, it := range b.Items {
		if !it.ReadOnly {
			n.locks[it.Key] = b.TxnID
		}
	}
	n.prepared[b.TxnID] = &preparedTxn{
		txnID: b.TxnID, reqID: b.ReqID, clock: b.Clock, node: b.Node,
		items: b.Items, at: n.k.Now(),
	}
	n.k.Sleep(serviceTime(putServiceTime, false, payloadBytes))
	req.Reply(txn.PrepareResp{Vote: true}, 16)
	n.cfg.Hooks.Fire(txn.HookPostPrepareAck, string(n.id))
}

func (n *Node) handleTxnDecision(_ simnet.Message, b txn.DecisionMsg) {
	p, ok := n.prepared[b.TxnID]
	if !ok {
		return // never prepared here, or already resolved
	}
	n.resolveTxn(p, b.Commit)
}

// resolveTxn finishes a prepared transaction: release its locks, drop
// the prepare record, and on commit install every written item into
// the store at the transaction's timestamp (dirty for replica gossip
// and cache push, like any put).
func (n *Node) resolveTxn(p *preparedTxn, commit bool) {
	delete(n.prepared, p.txnID)
	for _, it := range p.items {
		if !it.ReadOnly && n.locks[it.Key] == p.txnID {
			delete(n.locks, it.Key)
		}
	}
	if !commit {
		n.k.Sleep(putServiceTime)
		return
	}
	ts := lattice.Timestamp{Clock: p.clock, Node: p.node}
	var svc time.Duration
	for _, it := range p.items {
		if it.ReadOnly {
			continue
		}
		e, fromDisk := n.st.merge(it.Key, lattice.NewLWW(ts, it.Payload), n.k.Now())
		n.st.markDirty(e, forRepl, forPush)
		svc += serviceTime(putServiceTime, fromDisk, e.size)
	}
	n.k.Sleep(svc)
}

// txnSweepTick resolves in-doubt transactions older than the prepare
// TTL from the commit log.
func (n *Node) txnSweepTick() {
	if len(n.prepared) == 0 {
		return
	}
	now := n.k.Now()
	ids := make([]string, 0, len(n.prepared))
	for id := range n.prepared {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p, ok := n.prepared[id]
		if !ok || now.Sub(p.at) < txnPrepareTTL {
			continue
		}
		n.resolveInDoubt(p)
	}
}

// resolveInDoubt consults every owner of the transaction's commit-log
// key. Presence of a commit record is the commit decision (for the
// recorded attempt; a record naming a different attempt means ours
// lost and is a ghost to discard). Absence everywhere is presumed
// abort. Unreachable owners leave the transaction in doubt for the
// next sweep.
func (n *Node) resolveInDoubt(p *preparedTxn) {
	logKey := core.TxnLogKey(p.reqID)
	allMissing := true
	for _, o := range n.ring.OwnersFor(logKey) {
		var lat lattice.Lattice
		found := false
		if o == n.id {
			if e, _ := n.st.get(logKey, n.k.Now()); e != nil {
				lat, found = e.lat, true
			}
		} else {
			req := &GetReq{Key: logKey} // fresh: a timed-out one may still be filled
			if _, err := n.ep.Call(o, req, 24+len(logKey), 200*time.Millisecond); err != nil {
				allMissing = false // unreachable: cannot presume abort yet
				continue
			}
			lat, found = req.Lat, req.Found
		}
		if !found {
			continue
		}
		l, ok := lat.(*lattice.LWW)
		if !ok {
			continue
		}
		v, err := codec.Decode(l.Value)
		if err != nil {
			continue
		}
		rec, rerr := txn.AsRecord(v)
		if rerr != nil {
			continue
		}
		n.resolveTxn(p, rec.TxnID == p.txnID)
		return
	}
	if allMissing {
		n.resolveTxn(p, false)
	}
}

// PreparedTxns reports the node's in-doubt transaction count (chaos
// assertions: zero after heal).
func (n *Node) PreparedTxns() int { return len(n.prepared) }

// PreparedTxns sums in-doubt transactions across all storage nodes.
func (kv *KVS) PreparedTxns() int {
	total := 0
	for _, n := range kv.nodes {
		total += n.PreparedTxns()
	}
	return total
}
