package anna

import (
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
)

// GetReq fetches a key's lattice. Like MultiGetReq it travels by pointer
// with its reply space: before its one Reply (Filled) the owner sets Found
// and Lat, the stored lattice itself, which the caller shares. An owner may
// still fill a request whose call timed out, so the caller never reuses one.
type GetReq struct {
	Key   string
	Lat   lattice.Lattice
	Found bool
}

// PutReq merges a lattice into a key, which the owner keeps as it is,
// shared with the sender, before replying Filled. It travels by pointer;
// the caller never reuses one whose call timed out.
type PutReq struct {
	Key string
	Lat lattice.Lattice
}

// Filled answers a request whose reply space the owner has filled, or a
// put it has applied: a GetReq, a PutReq or a MultiGetReq. It is empty,
// so boxing it allocates nothing.
type Filled struct{}

// PutIfAbsentReq stores Lat under Key unless the receiver already holds
// the key, which it then leaves as it is.
type PutIfAbsentReq struct {
	Key string
	Lat lattice.Lattice
}

// PutIfAbsentResp answers a PutIfAbsentReq whose key the receiver already
// held: Held is that value, shared with its store. A receiver that stored
// Lat answers Filled, as for a PutReq.
type PutIfAbsentResp struct {
	Held lattice.Lattice
}

// MultiGetReq fetches many keys from one storage node in a single round
// trip. Callers partition the key list so every key's primary owner is
// the receiving node (the same grouping PublishKeyset uses); keys the
// node does not hold come back not-found and the caller decides whether
// to walk the replica list per key.
//
// It travels by pointer and carries its own reply space, as net/rpc's
// reply argument does: Lats is aligned with Keys, all nil when sent, and
// before its one Reply the owner stores each held key's lattice at its
// position (shared with the store, as in GetReq), leaving an absent
// key's slot nil. RPCs are at-most-once, so the owner touches nothing
// after that Reply; but a call that timed out may still reach its owner,
// which then reads Keys and writes Lats late, so the caller must not
// reuse that request.
type MultiGetReq struct {
	Keys []string
	Lats []lattice.Lattice
}

// DeleteReq removes a key from one storage node. True lattice deletion
// needs tombstones; Cloudburst's delete is the pragmatic operational kind
// (client fans the delete out to all owners), which this reproduction
// mirrors.
type DeleteReq struct {
	Key string
}

// DeleteResp acknowledges a DeleteReq.
type DeleteResp struct{}

// SetRemoveReq removes elements from the Set lattice stored at Key on
// one node. Grow-only sets have no lattice-theoretic deletion, so like
// DeleteReq this is the pragmatic operational kind: the client fans the
// removal to every owner, and because replicas do not re-gossip, the
// shrunken set sticks. The generation reaper uses it to scrub a dead VM
// generation's keys out of the shared metric registries.
type SetRemoveReq struct {
	Key   string
	Elems []string
}

// SetRemoveResp acknowledges a SetRemoveReq.
type SetRemoveResp struct{}

// KeysetUpdate is a cache's periodic snapshot delta of its cached keys
// (§4.2), already partitioned by the sender so every key belongs to the
// receiving node. Fire-and-forget.
type KeysetUpdate struct {
	Cache   simnet.NodeID
	Added   []string
	Removed []string
}

// GossipMsg propagates a key's lattice to every other owner, all sharing
// one message and Lat with the sender's store. Fire-and-forget.
type GossipMsg struct {
	Key string
	Lat lattice.Lattice
}

// KeyUpdatePush notifies a subscribed cache that a key changed, carrying
// the merged lattice (§4.2). Fire-and-forget, shared by every subscriber.
type KeyUpdatePush struct {
	Key string
	Lat lattice.Lattice
}
