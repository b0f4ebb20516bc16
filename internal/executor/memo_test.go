package executor

import (
	"testing"

	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
)

// TestDecodeVersionedMemoKeys exercises the decoded-value memo across
// version identities: LWW timestamps, causal capsule digests, and the
// non-memoizable digest-free causal case.
func TestDecodeVersionedMemoKeys(t *testing.T) {
	th := &Thread{memo: make(map[memoKey]any)}
	payload := codec.MustEncode("value")

	// LWW: (key, TS) keyed.
	lwwVer := core.VersionRef{TS: lattice.Timestamp{Clock: 5, Node: 1}}
	if v, err := th.decodeVersioned("k", lwwVer, payload); err != nil || v.(string) != "value" {
		t.Fatalf("first decode = %v, %v", v, err)
	}
	if _, err := th.decodeVersioned("k", lwwVer, payload); err != nil {
		t.Fatal(err)
	}
	if th.memoHits != 1 {
		t.Fatalf("memoHits after LWW re-read = %d, want 1", th.memoHits)
	}

	// Causal: (key, capsule digest) keyed.
	cap := lattice.NewCausal(lattice.VectorClock{"w": 1}, nil, payload)
	causalVer := core.VersionRef{VC: cap.VC(), VCD: cap.Digest()}
	if v, err := th.decodeVersioned("ck", causalVer, payload); err != nil || v.(string) != "value" {
		t.Fatalf("causal decode = %v, %v", v, err)
	}
	if _, err := th.decodeVersioned("ck", causalVer, payload); err != nil {
		t.Fatal(err)
	}
	if th.memoHits != 2 {
		t.Fatalf("memoHits after causal re-read = %d, want 2", th.memoHits)
	}
	// A different version of the same key must not hit.
	cap2 := lattice.NewCausal(lattice.VectorClock{"w": 2}, nil, payload)
	if _, err := th.decodeVersioned("ck", core.VersionRef{VC: cap2.VC(), VCD: cap2.Digest()}, payload); err != nil {
		t.Fatal(err)
	}
	if th.memoHits != 2 {
		t.Fatalf("memoHits after new version = %d, want 2 (no stale hit)", th.memoHits)
	}

	// Digest-free causal version: decodes, never memoizes.
	if _, err := th.decodeVersioned("nk", core.VersionRef{VC: lattice.VectorClock{"w": 1}.Freeze()}, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := th.decodeVersioned("nk", core.VersionRef{VC: lattice.VectorClock{"w": 1}.Freeze()}, payload); err != nil {
		t.Fatal(err)
	}
	if th.memoHits != 2 {
		t.Fatalf("memoHits after digest-free reads = %d, want 2", th.memoHits)
	}
}
