package anna

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// mapIndex is the key→cache index in the form it had before Node.index
// kept each key's caches in a sorted slice: a set per key, sorted on
// every read by sortedSubs. It is the oracle for Node.index.
type mapIndex map[string]map[simnet.NodeID]bool

func (m mapIndex) subscribe(key string, cache simnet.NodeID) {
	subs, ok := m[key]
	if !ok {
		subs = make(map[simnet.NodeID]bool)
		m[key] = subs
	}
	subs[cache] = true
}

func (m mapIndex) apply(u KeysetUpdate) {
	for _, key := range u.Added {
		m.subscribe(key, u.Cache)
	}
	for _, key := range u.Removed {
		if subs, ok := m[key]; ok {
			delete(subs, u.Cache)
			if len(subs) == 0 {
				delete(m, key)
			}
		}
	}
}

// dropUnowned forgets every key n stores but no longer owns: what
// n.transferForRing hands away under the current ring.
func (m mapIndex) dropUnowned(n *Node) {
	n.st.each(func(e *entry, onDisk bool) {
		if !slices.Contains(n.ring.OwnersFor(e.key), n.id) {
			delete(m, e.key)
		}
	})
}

// sortedSubs returns a subscriber set in deterministic order.
func sortedSubs(subs map[simnet.NodeID]bool) []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(subs))
	for c := range subs {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mismatch describes the first way n's index differs from m, or is "".
func (m mapIndex) mismatch(n *Node) string {
	for key, subs := range n.index {
		if _, ok := m[key]; !ok {
			return fmt.Sprintf("key %q indexed with %v, the oracle has no entry", key, subs)
		}
	}
	for key, subs := range m {
		if want := sortedSubs(subs); !slices.Equal(n.index[key], want) {
			return fmt.Sprintf("key %q indexed with %v, want %v", key, n.index[key], want)
		}
	}
	return ""
}

// TestIndexMatchesMapOracle drives one node's key→cache index through
// seeded histories of keyset deltas (subscriptions and unsubscriptions,
// repeats included), incoming transfers carrying subscribers, and ring
// changes that hand keys away, and holds it after every step to the
// map-form index: each key's caches ascending and equal to the sorted
// set, no key without a subscriber, and the same IndexOverheads total.
func TestIndexMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			k := vtime.NewKernel(seed)
			defer k.Stop()
			net := simnet.New(k, simnet.Link{Latency: simnet.Constant(time.Millisecond)})
			ring := NewRing(2, 8)
			peers := []simnet.NodeID{"p1", "p2", "p3"}
			ring.AddNode("n0")
			for _, p := range peers {
				ring.AddNode(p)
				net.AddNode(p)
			}
			n := NewNode(k, net.AddNode("n0"), ring, DefaultNodeConfig())
			caches := []simnet.NodeID{"c0", "c1", "c2", "c3", "c4"}
			rng := rand.New(rand.NewSource(seed))
			key := func() string { return fmt.Sprintf("k%02d", rng.Intn(30)) }
			keys := func() []string {
				out := make([]string, rng.Intn(4))
				for i := range out {
					out[i] = key()
				}
				return out
			}
			cache := func() simnet.NodeID { return caches[rng.Intn(len(caches))] }
			oracle := mapIndex{}
			var removals, drops int

			k.Run("driver", func() {
				for step := 0; step < 400 && !t.Failed(); step++ {
					switch r := rng.Intn(100); {
					case r < 40:
						u := KeysetUpdate{Cache: cache(), Added: keys()}
						n.applyKeyset(u)
						oracle.apply(u)
					case r < 70:
						u := KeysetUpdate{Cache: cache(), Removed: keys()}
						removals += len(u.Removed)
						n.applyKeyset(u)
						oracle.apply(u)
					case r < 85:
						var ents []TransferEntry
						for i := rng.Intn(3); i >= 0; i-- {
							te := TransferEntry{Key: key(), Lat: lattice.NewLWW(lattice.Timestamp{Clock: int64(step)}, []byte("v"))}
							for j := rng.Intn(3); j > 0; j-- {
								te.Subscribers = append(te.Subscribers, cache())
							}
							slices.Sort(te.Subscribers)
							te.Subscribers = slices.Compact(te.Subscribers)
							for _, c := range te.Subscribers {
								oracle.subscribe(te.Key, c)
							}
							ents = append(ents, te)
						}
						n.handleTransfer(simnet.Message{}, TransferMsg{Entries: ents})
					default:
						p := peers[rng.Intn(len(peers))]
						if ring.nodes[p] && ring.Size() > 2 {
							ring.RemoveNode(p)
						} else {
							ring.AddNode(p)
						}
						before := len(oracle)
						oracle.dropUnowned(n)
						drops += before - len(oracle)
						n.transferForRing()
					}
					if msg := oracle.mismatch(n); msg != "" {
						t.Fatalf("step %d: %s", step, msg)
					}
					want := 0
					for _, subs := range oracle {
						for c := range subs {
							want += len(c) + 4
						}
					}
					got := 0
					for _, b := range n.IndexOverheads() {
						got += b
					}
					if got != want {
						t.Fatalf("step %d: IndexOverheads sum to %d, the oracle's to %d", step, got, want)
					}
				}
			})
			if removals == 0 || drops == 0 || len(oracle) == 0 {
				t.Fatalf("history too thin: %d removals, %d keys handed away, %d keys left", removals, drops, len(oracle))
			}
		})
	}
}
