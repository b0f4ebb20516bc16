package executor

import (
	"testing"

	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
)

// memoThread returns a thread on vm that decodes through d, all a read's
// decode needs.
func memoThread(vm string, d *core.DecodeCache) *Thread {
	return &Thread{vm: vm, decoded: d}
}

// decodeRef reads payload as key's version ver on th and returns the
// address of the decoded []string's first element: two reads return the
// same address only when the second hit the decode cache.
func decodeRef(t *testing.T, th *Thread, key string, ver core.VersionRef, payload []byte) *string {
	t.Helper()
	v, err := th.decodeVersioned(key, ver, payload)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := v.([]string)
	if !ok || len(s) != 1 {
		t.Fatalf("%s decoded to %#v, want a one-element []string", key, v)
	}
	return &s[0]
}

// causalVer names a one-version capsule of payload written at vc.
func causalVer(vc lattice.VectorClock, payload []byte) core.VersionRef {
	c := lattice.NewCausal(vc, nil, payload)
	return core.VersionRef{VC: c.VC(), VCD: c.Digest()}
}

// TestDecodeVersionedMemoKeys exercises the decode cache across version
// identities: LWW timestamps, causal capsule digests, and the
// non-memoizable digest-free causal case.
func TestDecodeVersionedMemoKeys(t *testing.T) {
	th := memoThread("vm0", core.NewDecodeCache())
	payload := codec.MustEncode([]string{"value"})

	// LWW: named by timestamp.
	lwwVer := core.VersionRef{TS: lattice.Timestamp{Clock: 5, Node: 1}}
	if first := decodeRef(t, th, "k", lwwVer, payload); *first != "value" || decodeRef(t, th, "k", lwwVer, payload) != first {
		t.Fatal("LWW re-read of one timestamp decoded again")
	}

	// Causal: named by capsule digest.
	ver1 := causalVer(lattice.VectorClock{"w": 1}, payload)
	first := decodeRef(t, th, "ck", ver1, payload)
	if *first != "value" || decodeRef(t, th, "ck", ver1, payload) != first {
		t.Fatal("causal re-read of one digest decoded again")
	}
	// A different version of the same key must not hit.
	if decodeRef(t, th, "ck", causalVer(lattice.VectorClock{"w": 2}, payload), payload) == first {
		t.Fatal("a new causal version hit the old one's entry")
	}

	// Digest-free causal version: decodes, never memoizes.
	bare := core.VersionRef{VC: lattice.VectorClock{"w": 1}.Freeze()}
	if decodeRef(t, th, "nk", bare, payload) == decodeRef(t, th, "nk", bare, payload) {
		t.Fatal("a digest-free causal read hit the cache")
	}
}

// TestMemoDoesNotConfuseCollidingClocks reads two causal versions of one
// key whose clocks differ only by both writers advancing one step; each
// must decode to its own payload, not the other's memoized value.
func TestMemoDoesNotConfuseCollidingClocks(t *testing.T) {
	th := memoThread("vm0", core.NewDecodeCache())
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

// TestDecodedOncePerCluster: threads on two VMs of one cluster reading
// one version get the one decoded value, in LWW and causal modes alike;
// a thread of another cluster decodes its own.
func TestDecodedOncePerCluster(t *testing.T) {
	shared := core.NewDecodeCache()
	a, b := memoThread("vm0", shared), memoThread("vm1", shared)
	other := memoThread("vm0", core.NewDecodeCache())
	payload := codec.MustEncode([]string{"value"})
	for _, ver := range []core.VersionRef{
		{TS: lattice.Timestamp{Clock: 7, Node: 2}},
		causalVer(lattice.VectorClock{"w": 3}, payload),
	} {
		first := decodeRef(t, a, "k", ver, payload)
		if decodeRef(t, b, "k", ver, payload) != first {
			t.Fatalf("%+v: a thread on another VM decoded the version again", ver)
		}
		if decodeRef(t, other, "k", ver, payload) == first {
			t.Fatalf("%+v: another cluster's thread shared the value", ver)
		}
	}
}

// TestNewerVersionReplacesEntry: a key keeps one entry, its latest
// decoded version; the older version read again decodes again, to its
// own payload, and never hits the newer one's value.
func TestNewerVersionReplacesEntry(t *testing.T) {
	th := memoThread("vm0", core.NewDecodeCache())
	oldBytes, newBytes := codec.MustEncode([]string{"old"}), codec.MustEncode([]string{"new"})
	for _, vers := range [][2]core.VersionRef{
		{{TS: lattice.Timestamp{Clock: 1, Node: 1}}, {TS: lattice.Timestamp{Clock: 2, Node: 1}}},
		{causalVer(lattice.VectorClock{"w": 1}, oldBytes), causalVer(lattice.VectorClock{"w": 2}, newBytes)},
	} {
		oldVer, newVer := vers[0], vers[1]
		first := decodeRef(t, th, "k", oldVer, oldBytes)
		newer := decodeRef(t, th, "k", newVer, newBytes)
		if *newer != "new" || decodeRef(t, th, "k", newVer, newBytes) != newer {
			t.Fatalf("%+v: the newer version did not take the entry", newVer)
		}
		again := decodeRef(t, th, "k", oldVer, oldBytes)
		if again == first || again == newer || *again != "old" {
			t.Fatalf("%+v: the replaced version hit (%v)", oldVer, *again)
		}
	}
}

// TestDecodedHitAllocationFree: a read whose version the decode cache
// holds allocates nothing, LWW or causal.
func TestDecodedHitAllocationFree(t *testing.T) {
	th := memoThread("vm0", core.NewDecodeCache())
	payload := codec.MustEncode([]string{"value"})
	for _, ver := range []core.VersionRef{
		{TS: lattice.Timestamp{Clock: 5, Node: 1}},
		causalVer(lattice.VectorClock{"w": 1}, payload),
	} {
		decodeRef(t, th, "k", ver, payload)
		if got := testing.AllocsPerRun(100, func() {
			if _, err := th.decodeVersioned("k", ver, payload); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%+v: a hit allocates %.1f times, want 0", ver, got)
		}
	}
}
