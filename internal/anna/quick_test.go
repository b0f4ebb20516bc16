package anna

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cloudburst/internal/simnet"
)

// testing/quick properties on the hash ring: routing invariants must
// hold for arbitrary membership and key sets, or data silently vanishes
// on rebalance.

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(41))}
}

// membership turns quick's raw bytes into 1..8 node names.
type membership struct {
	N uint8
}

func (m membership) nodes() []simnet.NodeID {
	n := int(m.N%8) + 1
	out := make([]simnet.NodeID, n)
	for i := range out {
		out[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	return out
}

func TestQuickRingOwnersAlwaysDistinctAndBounded(t *testing.T) {
	prop := func(m membership, keyRaw uint32, k uint8) bool {
		nodes := m.nodes()
		repl := int(k%4) + 1
		r := NewRing(repl, 16)
		for _, n := range nodes {
			r.AddNode(n)
		}
		key := fmt.Sprintf("key-%d", keyRaw)
		owners := r.OwnersFor(key)
		want := repl
		if want > len(nodes) {
			want = len(nodes)
		}
		if len(owners) != want {
			return false
		}
		seen := map[simnet.NodeID]bool{}
		for _, o := range owners {
			if seen[o] {
				return false
			}
			seen[o] = true
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRingRoutingDeterministic(t *testing.T) {
	prop := func(m membership, keyRaw uint32) bool {
		nodes := m.nodes()
		build := func() *Ring {
			r := NewRing(2, 16)
			for _, n := range nodes {
				r.AddNode(n)
			}
			return r
		}
		key := fmt.Sprintf("key-%d", keyRaw)
		a := build().OwnersFor(key)
		b := build().OwnersFor(key)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRingRemoveNeverRoutesToRemoved(t *testing.T) {
	prop := func(m membership, keyRaw uint32, victim uint8) bool {
		nodes := m.nodes()
		if len(nodes) < 2 {
			return true
		}
		r := NewRing(2, 16)
		for _, n := range nodes {
			r.AddNode(n)
		}
		gone := nodes[int(victim)%len(nodes)]
		r.RemoveNode(gone)
		for _, o := range r.OwnersFor(fmt.Sprintf("key-%d", keyRaw)) {
			if o == gone {
				return false
			}
		}
		return r.Size() == len(nodes)-1
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRingAddOnlyStealsKeys(t *testing.T) {
	// Adding a node must never move a key between two PRE-EXISTING
	// nodes: ownership changes only toward the new node (consistent
	// hashing's minimal-disruption property).
	prop := func(m membership, seed uint32) bool {
		nodes := m.nodes()
		r := NewRing(1, 16)
		for _, n := range nodes {
			r.AddNode(n)
		}
		before := map[string]simnet.NodeID{}
		for i := 0; i < 64; i++ {
			key := fmt.Sprintf("k-%d-%d", seed, i)
			before[key] = r.PrimaryFor(key)
		}
		r.AddNode("node-new")
		for key, prev := range before {
			now := r.PrimaryFor(key)
			if now != prev && now != "node-new" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// TestHash64MatchesFNVThenFmix pins the inlined hash to the library one it
// replaced: ring placement, and with it every simulated number, depends
// on the two agreeing bit for bit.
func TestHash64MatchesFNVThenFmix(t *testing.T) {
	reference := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		x := h.Sum64()
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		return x
	}
	inputs := []string{
		"", "a", "key-1", "key-2", "anna-0#0", "anna-11#31", "sys/metrics/exec-list",
		"user:42:timeline", "\x00", "\xff\xfe", "héllo wörld", strings.Repeat("x", 1000),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		inputs = append(inputs, string(b))
	}
	for _, s := range inputs {
		if got, want := hash64(s), reference(s); got != want {
			t.Fatalf("hash64(%q) = %#x, hash/fnv+fmix64 gives %#x", s, got, want)
		}
	}
}

func TestQuickRingPrimaryIsFirstOwner(t *testing.T) {
	// PrimaryFor takes a shortcut past the owner list; it must agree with
	// OwnersFor(key)[0] whatever the membership history.
	prop := func(m membership, seed uint32, repl, victim uint8) bool {
		nodes := m.nodes()
		r := NewRing(int(repl%3)+1, 16)
		keys := make([]string, 48)
		for i := range keys {
			keys[i] = fmt.Sprintf("k-%d-%d", seed, i)
		}
		agree := func() bool {
			for _, key := range keys {
				owners := r.OwnersFor(key)
				if len(owners) == 0 {
					if r.PrimaryFor(key) != "" {
						return false
					}
				} else if r.PrimaryFor(key) != owners[0] {
					return false
				}
			}
			return true
		}
		if !agree() { // empty ring
			return false
		}
		for _, n := range nodes {
			r.AddNode(n)
			if !agree() {
				return false
			}
		}
		r.RemoveNode(nodes[int(victim)%len(nodes)])
		if !agree() {
			return false
		}
		r.AddNode("node-new")
		return agree()
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}
