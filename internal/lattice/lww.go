package lattice

import (
	"bytes"
	"hash/fnv"
)

// Timestamp is Anna's coordination-free global timestamp: the node's
// local clock concatenated with the node's unique ID (§5.2). Ordering is
// lexicographic (clock first, node as tie-break), so any two distinct
// writes from distinct nodes are totally ordered without coordination.
type Timestamp struct {
	Clock int64  // local (virtual) clock, nanoseconds
	Node  uint64 // unique writer id
}

// Less reports strict ordering t < u.
func (t Timestamp) Less(u Timestamp) bool {
	if t.Clock != u.Clock {
		return t.Clock < u.Clock
	}
	return t.Node < u.Node
}

// NodeHash folds a writer id (a client endpoint, a cache's writer, a VM,
// a transaction) into a Timestamp's Node component: FNV-64a of the id.
func NodeHash(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// LWW is the last-writer-wins lattice: an Anna timestamp composed with an
// opaque payload. Merge keeps the pair with the larger timestamp; equal
// timestamps tie-break on payload bytes so the merge stays commutative.
// This is the default capsule Cloudburst wraps bare program values in.
//
// A capsule is an immutable value: nothing writes TS or Value after
// NewLWW, so Merge returns the winning side, and stores, snapshots and
// messages share one capsule. Every writer
// allocates a fresh payload buffer (codec.Encode always returns one), so
// readers throughout the cache/KVS/executor data plane hand out the same
// bytes. The payload guard (see GuardPayloads) enforces the convention
// in tests.
type LWW struct {
	TS    Timestamp
	Value []byte
}

// NewLWW returns a capsule holding value at timestamp ts. The capsule
// takes ownership of value; the caller must not mutate it afterwards.
func NewLWW(ts Timestamp, value []byte) *LWW {
	recordPayload(value)
	return &LWW{TS: ts, Value: value}
}

// Merge implements Lattice: the winning capsule itself, neither side
// written.
func (l *LWW) Merge(other Lattice) Lattice {
	o, ok := other.(*LWW)
	if !ok {
		panic(mismatch(l.TypeName(), other))
	}
	if l.less(o) {
		return o
	}
	return l
}

// less orders capsules: timestamp, then payload bytes for determinism.
func (l *LWW) less(o *LWW) bool {
	if l.TS != o.TS {
		return l.TS.Less(o.TS)
	}
	return bytes.Compare(l.Value, o.Value) < 0
}

// ByteSize implements Lattice. The paper calls out the 8-byte timestamp
// as LWW's only metadata overhead (§6.2.1).
func (l *LWW) ByteSize() int { return 8 + len(l.Value) }

// TypeName implements Lattice.
func (l *LWW) TypeName() string { return "lww" }
