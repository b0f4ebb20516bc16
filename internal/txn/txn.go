// Package txn implements crash-safe atomic multi-key commit for
// Cloudburst requests invoked with the Txn option: an executor-side
// coordinator buffers the request's write set and commits it across
// Anna owner nodes with presumed-abort two-phase commit over the
// existing RPC plane. Prepared-but-uncommitted versions live outside
// the nodes' stores, so readers never observe a partial write set
// under any consistency mode. The commit decision is durably logged in
// Anna (a registered codec wire struct) before any commit
// message is sent, so a participant orphaned by a coordinator VM crash
// resolves itself from the log, and a §4.5 re-execution of the same
// request finds the log and returns the recorded result instead of
// applying its effects twice.
package txn

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/hook"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// Named protocol points the chaos plane can crash at (fault.CrashAt).
const (
	// HookPostPrepare fires on the coordinator after every vote is in,
	// before the commit log is written: a crash here is presumed abort.
	HookPostPrepare = "txn/post-prepare"
	// HookPostPrepareAck fires on a participant storage node right
	// after it acks a prepare: a crash here leaves it in doubt.
	HookPostPrepareAck = "txn/post-prepare-ack"
	// HookPreCommitSend fires on the coordinator after the commit log
	// is durably written, before any commit message goes out: a crash
	// here drops every commit message and the participants' sweep must
	// resolve from the log.
	HookPreCommitSend = "txn/pre-commit-send"
)

// PrepareReq asks a storage node to validate and lock the subset of a
// transaction's write set it owns. Clock/Node form the LWW timestamp
// every installed write will carry.
type PrepareReq struct {
	TxnID string
	ReqID string
	Clock int64
	Node  uint64
	Items []core.TxnWrite
}

// PrepareResp is a participant's vote.
type PrepareResp struct {
	Vote   bool
	Reason string // set when Vote is false
}

// DecisionMsg is the coordinator's (or the recovery sweep's) one-way
// commit/abort decision for a prepared transaction.
type DecisionMsg struct {
	TxnID  string
	Commit bool
}

// Record is the coordinator's durable commit-log entry, stored in Anna
// under core.TxnLogKey(reqID) as an LWW capsule. Its presence means
// "committed" (presumed abort: no record, no commit); TxnID names the
// winning attempt, Keys the written keys, and Result the request's
// result payload so a re-executed attempt can return it verbatim.
type Record struct {
	TxnID  string
	Keys   []string
	Result []byte
}

func init() {
	codec.RegisterStruct[Record, *Record]("txn.Record")
}

// AppendWire implements codec.Struct.
func (r Record) AppendWire(dst []byte) []byte {
	dst = codec.AppendStr(dst, r.TxnID)
	dst = codec.AppendStrs(dst, r.Keys)
	return codec.AppendStr(dst, string(r.Result))
}

// DecodeWire implements codec.Struct.
func (r *Record) DecodeWire(body []byte) error {
	rd := codec.NewReader(body)
	r.TxnID = rd.Str()
	r.Keys = rd.Strs()
	if s := rd.Str(); s != "" {
		r.Result = []byte(s)
	} else {
		r.Result = nil
	}
	return rd.Done()
}

// Router resolves a key's owner storage nodes (*anna.Ring satisfies it).
type Router interface {
	OwnersFor(key string) []simnet.NodeID
}

// KV is the coordinator's view of the commit log store (*anna.Client
// satisfies it): Get walks replicas until one answers, PutAny writes
// every owner and succeeds when at least one acked.
type KV interface {
	Get(key string) (lattice.Lattice, bool, error)
	PutAny(key string, lat lattice.Lattice) (int, error)
}

// ErrCrashed reports that a CrashAt point-cut fired on this
// coordinator mid-commit: the protocol stops exactly here, as if the
// VM died at this instruction. Callers must not reply to the client.
var ErrCrashed = errors.New("txn: coordinator crashed at point-cut")

// AbortError is a transaction abort (validation conflict, participant
// timeout, or log write failure). Aborts are clean: every participant
// is told, no write is visible, and the caller may retry.
type AbortError struct{ Reason string }

func (e *AbortError) Error() string { return "txn: aborted: " + e.Reason }

// Coordinator runs two-phase commit from an executor thread. One
// coordinator per thread; Commit is called at most once at a time (the
// thread serves one invocation at a time).
type Coordinator struct {
	K      *vtime.Kernel
	EP     *simnet.Endpoint
	Ring   Router
	KV     KV
	Hooks  *hook.Registry
	Entity string // VM name, the identity CrashAt point-cuts match on
}

// prepareTimeout bounds each participant's prepare round trip; a
// timed-out participant is a no vote (presumed abort).
const prepareTimeout = 500 * time.Millisecond

// Commit atomically installs writes across their Anna owners. The
// returned payload is nil on a fresh commit; when a prior attempt of
// the same request already committed (a §4.5 re-execution racing a
// lost coordinator), it is that attempt's recorded result, which the
// caller must return to the client instead of its own — the new
// attempt's writes are discarded, keeping effects exactly-once.
func (c *Coordinator) Commit(reqID, txnID string, writes []core.TxnWrite, resultPayload []byte) ([]byte, error) {
	if len(writes) == 0 {
		return nil, nil
	}
	// Presumed abort, exactly-once: a commit record for this request id
	// means an earlier attempt decided commit. Re-push the decision (it
	// heals participants whose commit message was dropped) and surface
	// the recorded result.
	logKey := core.TxnLogKey(reqID)
	lat, found, err := c.KV.Get(logKey)
	if err != nil {
		return nil, fmt.Errorf("txn: commit log unavailable: %w", err)
	}
	if found {
		rec, derr := c.decodeRecord(lat)
		if derr != nil {
			return nil, derr
		}
		c.sendDecisions(c.participantsFor(keysOf(rec.Keys)), rec.TxnID, true)
		return rec.Result, nil
	}

	parts, order := c.groupByOwner(writes)
	clock := int64(c.K.Now())
	// One transaction's installed writes share a single version identity.
	node := lattice.NodeHash(txnID)

	// Phase 1: parallel prepare. A vote is yes only if the participant
	// validated every item and locked every written key; errors and
	// timeouts are no votes.
	votes := make([]string, len(order))
	wg := vtime.NewWaitGroup(c.K)
	for i, o := range order {
		i, o := i, o
		wg.Add(1)
		c.K.Go(string(c.EP.ID())+"/txn-prepare", func() {
			defer wg.Done()
			req := PrepareReq{TxnID: txnID, ReqID: reqID, Clock: clock, Node: node, Items: parts[o]}
			resp, cerr := c.EP.Call(o, req, 64+core.TxnWritesSize(parts[o]), prepareTimeout)
			if cerr != nil {
				votes[i] = "prepare " + string(o) + ": " + cerr.Error()
				return
			}
			pr := resp.(PrepareResp)
			if !pr.Vote {
				votes[i] = pr.Reason
			}
		})
	}
	wg.Wait()

	if c.Hooks.Fire(HookPostPrepare, c.Entity) {
		// Crashed before the log write: no record will ever exist, so
		// every prepared participant resolves to abort (presumed abort).
		return nil, ErrCrashed
	}

	for _, v := range votes {
		if v != "" {
			c.sendDecisions(order, txnID, false)
			return nil, &AbortError{Reason: v}
		}
	}

	// Decision point: durably log commit before telling anyone. One ack
	// suffices — replica gossip heals partial log writes, and the sweep
	// treats "found on any owner" as committed.
	rec := Record{TxnID: txnID, Keys: writtenKeys(writes), Result: resultPayload}
	body, eerr := codec.Encode(rec)
	if eerr != nil {
		c.sendDecisions(order, txnID, false)
		return nil, &AbortError{Reason: "encode commit record: " + eerr.Error()}
	}
	acks, perr := c.KV.PutAny(logKey, lattice.NewLWW(lattice.Timestamp{Clock: clock, Node: node}, body))
	if perr != nil || acks == 0 {
		c.sendDecisions(order, txnID, false)
		reason := "commit log write failed"
		if perr != nil {
			reason += ": " + perr.Error()
		}
		return nil, &AbortError{Reason: reason}
	}

	if c.Hooks.Fire(HookPreCommitSend, c.Entity) {
		// Crashed after the decision was logged: every commit message is
		// lost, and the participants' recovery sweep must finish the job.
		return nil, ErrCrashed
	}

	// Phase 2: one-way commit messages.
	c.sendDecisions(order, txnID, true)
	return nil, nil
}

// groupByOwner fans the write set out to every owner of each key, in
// deterministic owner order.
func (c *Coordinator) groupByOwner(writes []core.TxnWrite) (map[simnet.NodeID][]core.TxnWrite, []simnet.NodeID) {
	parts := make(map[simnet.NodeID][]core.TxnWrite)
	var order []simnet.NodeID
	for _, w := range writes {
		for _, o := range c.Ring.OwnersFor(w.Key) {
			if _, ok := parts[o]; !ok {
				order = append(order, o)
			}
			parts[o] = append(parts[o], w)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	return parts, order
}

// participantsFor resolves the owner set of a committed record's keys
// (for decision re-push on recovery).
func (c *Coordinator) participantsFor(writes []core.TxnWrite) []simnet.NodeID {
	_, order := c.groupByOwner(writes)
	return order
}

// sendDecisions fans the decision out fire-and-forget.
func (c *Coordinator) sendDecisions(to []simnet.NodeID, txnID string, commit bool) {
	for _, o := range to {
		c.EP.Send(o, DecisionMsg{TxnID: txnID, Commit: commit}, 32)
	}
}

// decodeRecord unwraps a commit-log capsule.
func (c *Coordinator) decodeRecord(lat lattice.Lattice) (Record, error) {
	l, ok := lat.(*lattice.LWW)
	if !ok {
		return Record{}, fmt.Errorf("txn: commit log holds %s", lat.TypeName())
	}
	v, err := codec.Decode(l.Value)
	if err != nil {
		return Record{}, fmt.Errorf("txn: decode commit record: %w", err)
	}
	return AsRecord(v)
}

// AsRecord coerces a decoded commit-log value.
func AsRecord(v any) (Record, error) {
	switch r := v.(type) {
	case Record:
		return r, nil
	case *Record:
		return *r, nil
	}
	return Record{}, fmt.Errorf("txn: commit log holds %T", v)
}

// writtenKeys lists the non-read-only keys, sorted and deduplicated.
func writtenKeys(writes []core.TxnWrite) []string {
	seen := make(map[string]bool, len(writes))
	out := make([]string, 0, len(writes))
	for _, w := range writes {
		if w.ReadOnly || seen[w.Key] {
			continue
		}
		seen[w.Key] = true
		out = append(out, w.Key)
	}
	sort.Strings(out)
	return out
}

// keysOf lifts bare key names into write-set entries (routing only).
func keysOf(keys []string) []core.TxnWrite {
	out := make([]core.TxnWrite, len(keys))
	for i, k := range keys {
		out[i] = core.TxnWrite{Key: k}
	}
	return out
}
