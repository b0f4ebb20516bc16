package lattice

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// The payload guard is the test-only enforcement of the capsule
// immutability convention: a capsule's payload bytes must never change
// after construction (writers allocate fresh buffers; every lattice is a
// value that Merge never writes, so the cache/KVS/executor data plane
// shares them instead of copying). A causal version's Clock and Deps need
// no convention: nothing outside this package can write either, and
// nothing inside does. A Set's shared Elems slice is read-only by the
// same rule as a payload.
// While enabled, every payload entering a capsule via NewLWW/NewCausal is
// checksummed; VerifyPayloads recomputes the checksums and reports
// whatever was mutated in place. The guard costs one atomic load when
// disabled, so production paths are unaffected.

// guardEntry remembers one capsuled payload and its construction-time
// checksum.
type guardEntry struct {
	b   []byte
	sum uint64
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
		if payloadSum(e.b) == e.sum {
			continue
		}
		mutated++
		if first == "" {
			first = fmt.Sprintf("payload of %d bytes (now %q...)", len(e.b), clip(e.b))
		}
	}
	if mutated > 0 {
		return fmt.Errorf("lattice: %d capsuled payload(s) mutated after construction; first: %s", mutated, first)
	}
	return nil
}

// recordPayload checksums b when the guard is enabled; called by NewLWW
// and NewCausalClock.
func recordPayload(b []byte) {
	if !guardEnabled.Load() || len(b) == 0 {
		return
	}
	guardMu.Lock()
	if len(guardEntries) < maxGuardEntries {
		guardEntries = append(guardEntries, guardEntry{b: b, sum: payloadSum(b)})
	}
	guardMu.Unlock()
}

func payloadSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func clip(b []byte) []byte {
	if len(b) > 16 {
		return b[:16]
	}
	return b
}
