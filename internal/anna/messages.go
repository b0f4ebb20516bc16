package anna

import (
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
)

// GetReq fetches a key's lattice.
type GetReq struct {
	Key string
}

// GetResp answers a GetReq. Lat is the stored value itself: a lattice is
// immutable, so the receiver shares it with the store.
type GetResp struct {
	Key   string
	Lat   lattice.Lattice
	Found bool
}

// PutReq merges a lattice into a key. The receiver keeps Lat as it is,
// shared with the sender.
type PutReq struct {
	Key string
	Lat lattice.Lattice
}

// PutResp acknowledges a PutReq.
type PutResp struct {
	OK bool
}

// PutIfAbsentReq stores Lat under Key unless the receiver already holds
// the key, which it then leaves as it is.
type PutIfAbsentReq struct {
	Key string
	Lat lattice.Lattice
}

// PutIfAbsentResp answers a PutIfAbsentReq: Held is the value the
// receiver already held (shared with its store), nil when it stored Lat.
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
// position (shared with the store, as in GetResp), leaving an absent
// key's slot nil. RPCs are at-most-once, so the owner touches nothing
// after that Reply; but a call that timed out may still reach its owner,
// which then reads Keys and writes Lats late, so the caller must not
// reuse that request.
type MultiGetReq struct {
	Keys []string
	Lats []lattice.Lattice
}

// MultiGetResp answers a MultiGetReq whose Lats the owner has filled. It
// is empty, so boxing it allocates nothing.
type MultiGetResp struct{}

// DeleteReq removes a key from one storage node. True lattice deletion
// needs tombstones; Cloudburst's delete is the pragmatic operational kind
// (client fans the delete out to all owners), which this reproduction
// mirrors.
type DeleteReq struct {
	Key string
}

// DeleteResp acknowledges a DeleteReq.
type DeleteResp struct {
	OK bool
}

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

// SetRemoveResp acknowledges a SetRemoveReq. OK reports whether any
// element was present and removed on this node.
type SetRemoveResp struct {
	OK bool
}

// KeysetUpdate is a cache's periodic snapshot delta of its cached keys
// (§4.2), already partitioned by the sender so every key belongs to the
// receiving node. Fire-and-forget.
type KeysetUpdate struct {
	Cache   simnet.NodeID
	Added   []string
	Removed []string
}

// GossipMsg propagates a key's lattice to a replica. Fire-and-forget;
// Lat is shared with the sender's store, as in GetResp.
type GossipMsg struct {
	Key string
	Lat lattice.Lattice
}

// KeyUpdatePush notifies a subscribed cache that a key changed, carrying
// the merged lattice (§4.2's update propagation). Fire-and-forget.
type KeyUpdatePush struct {
	Key string
	Lat lattice.Lattice
}

// TransferMsg hands keys (and their index entries) to a node that became
// an owner after a ring change. Fire-and-forget; entries share the
// sender's values.
type TransferMsg struct {
	Entries []TransferEntry
}

// TransferEntry is one migrated key.
type TransferEntry struct {
	Key         string
	Lat         lattice.Lattice
	Subscribers []simnet.NodeID // the key's caches from the key→cache index, ascending
}
