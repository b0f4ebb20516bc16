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

// TestMemoDoesNotConfuseCollidingClocks reads two causal versions of one
// key whose clocks differ only by both writers advancing one step; each
// must decode to its own payload, not the other's memoized value.
func TestMemoDoesNotConfuseCollidingClocks(t *testing.T) {
	th := &Thread{memo: make(map[memoKey]any)}
	older := codec.MustEncode("older")
	newer := codec.MustEncode("newer")
	capOld := lattice.NewCausal(lattice.VectorClock{"exec-vm3-0": 1, "exec-vm3-1": 1, "preload": 1687}, nil, older)
	capNew := lattice.NewCausal(lattice.VectorClock{"exec-vm3-0": 2, "exec-vm3-1": 2, "preload": 1687}, nil, newer)
	for _, c := range []struct {
		cap  *lattice.Causal
		data []byte
		want string
	}{{capOld, older, "older"}, {capNew, newer, "newer"}} {
		v, err := th.decodeVersioned("rt/timeline/121", core.VersionRef{VC: c.cap.VC(), VCD: c.cap.Digest()}, c.data)
		if err != nil {
			t.Fatal(err)
		}
		if v.(string) != c.want {
			t.Fatalf("decoded %q, want %q", v, c.want)
		}
	}
}
