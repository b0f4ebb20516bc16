package lattice

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// The payload guard is the test-only enforcement of the capsule
// immutability convention: a capsule's payload bytes — and a causal
// version's dependency map, which a one-sibling DepsUnion hands out — must
// never change after construction (writers allocate fresh buffers and
// maps; every lattice is a value that Merge never writes, so the
// cache/KVS/executor data plane shares them instead of copying). A Clock
// needs no convention: nothing outside this package can write one, and
// nothing inside does. A Set's shared Elems slice is read-only by the
// same rule as a payload.
// While enabled, everything entering a capsule via NewLWW/NewCausal is
// checksummed; VerifyPayloads recomputes the checksums and reports
// whatever was mutated in place. The guard costs one atomic load when
// disabled, so production paths are unaffected.

// guardEntry remembers one capsuled write — for an LWW capsule only v's
// payload — and its construction-time checksums.
type guardEntry struct {
	v       Version
	sum     uint64
	metaSum uint64
}

// maxGuardEntries bounds guard memory; tests that capsule more payloads
// than this still verify the first maxGuardEntries of them.
const maxGuardEntries = 1 << 16

var (
	guardEnabled atomic.Bool
	guardMu      sync.Mutex // guards guardEntries; enabled check stays lock-free
	guardEntries []guardEntry
)

// GuardPayloads starts recording capsule payloads for immutability
// verification. The entry list is mutex-protected so guarded tests may
// run while other kernels construct capsules on sibling OS threads (the
// parallel experiment runner); within one kernel the cooperative
// scheduler already serializes construction.
func GuardPayloads() {
	guardMu.Lock()
	guardEntries = guardEntries[:0]
	guardMu.Unlock()
	guardEnabled.Store(true)
}

// VerifyPayloads stops recording and returns an error naming every
// guarded payload whose bytes changed since construction.
func VerifyPayloads() error {
	guardEnabled.Store(false)
	guardMu.Lock()
	entries := guardEntries
	guardEntries = nil
	guardMu.Unlock()
	var mutated int
	var first string
	for _, e := range entries {
		var what string
		switch {
		case payloadSum(e.v.Value) != e.sum:
			what = fmt.Sprintf("payload of %d bytes (now %q...)", len(e.v.Value), clip(e.v.Value))
		case metadataSum(e.v) != e.metaSum:
			what = fmt.Sprintf("metadata of a version (now clock %s, %d dependencies)", e.v.VC, len(e.v.Deps))
		default:
			continue
		}
		mutated++
		if first == "" {
			first = what
		}
	}
	if mutated > 0 {
		return fmt.Errorf("lattice: %d capsuled write(s) mutated after construction; first: %s", mutated, first)
	}
	return nil
}

// recordPayload checksums b when the guard is enabled; called by NewLWW.
func recordPayload(b []byte) {
	if guardEnabled.Load() && len(b) > 0 {
		recordVersion(Version{Value: b})
	}
}

// recordVersion checksums v's payload and metadata when the guard is
// enabled; called by NewCausal.
func recordVersion(v Version) {
	if !guardEnabled.Load() {
		return
	}
	guardMu.Lock()
	if len(guardEntries) < maxGuardEntries {
		guardEntries = append(guardEntries, guardEntry{v: v, sum: payloadSum(v.Value), metaSum: metadataSum(v)})
	}
	guardMu.Unlock()
}

func payloadSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// metadataSum folds v's clock digest with a commutative digest of its
// dependency map (key hash mixed with the dependency's clock digest), so
// map iteration order does not matter.
func metadataSum(v Version) uint64 {
	h := v.VC.Digest()
	for k, vc := range v.Deps {
		h += (payloadSum([]byte(k)) ^ vc.Digest()) * 0x9E3779B97F4A7C15
	}
	return h
}

func clip(b []byte) []byte {
	if len(b) > 16 {
		return b[:16]
	}
	return b
}
