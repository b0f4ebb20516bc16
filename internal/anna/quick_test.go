package anna

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"cloudburst/internal/simnet"
)

// testing/quick properties on the hash ring: routing invariants must
// hold for arbitrary membership and key sets.

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
		r := NewRing(repl, 16, nodes)
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

// TestQuickRingRoutingDeterministic: ownership depends on the membership
// alone, not on the order the nodes are listed in.
func TestQuickRingRoutingDeterministic(t *testing.T) {
	prop := func(m membership, keyRaw uint32) bool {
		nodes := m.nodes()
		key := fmt.Sprintf("key-%d", keyRaw)
		a := NewRing(2, 16, nodes).OwnersFor(key)
		slices.Reverse(nodes)
		b := NewRing(2, 16, nodes).OwnersFor(key)
		return slices.Equal(a, b)
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
	// OwnersFor(key)[0] whatever the membership, the empty one included.
	prop := func(m membership, seed uint32, repl uint8) bool {
		nodes := m.nodes()
		for i := 0; i <= len(nodes); i++ {
			r := NewRing(int(repl%3)+1, 16, nodes[:i])
			for j := 0; j < 48; j++ {
				key := fmt.Sprintf("k-%d-%d", seed, j)
				owners := r.OwnersFor(key)
				if len(owners) == 0 {
					if r.PrimaryFor(key) != "" {
						return false
					}
				} else if r.PrimaryFor(key) != owners[0] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}
