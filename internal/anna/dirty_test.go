package anna

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/txn"
	"cloudburst/internal/vtime"
)

// sent is one message a tick emitted: where to, about which key.
type sent struct {
	dst simnet.NodeID
	key string
}

// referenceSends is what a tick must emit, computed the way the ticks
// used to work: a full scan of the store in each's order, acting on every
// flagged entry, with each key's caches read from the map-form index and
// sorted. Send order is part of the contract (each send draws from the
// kernel's random source), so the dirty queues and the sorted index are
// held to it exactly.
func referenceSends(n *Node, index mapIndex, kind dirtyKind) []sent {
	var out []sent
	n.st.each(func(e *entry, onDisk bool) {
		if !e.dirty[kind] {
			return
		}
		if kind == forPush {
			for _, c := range sortedSubs(index[e.key]) {
				out = append(out, sent{c, e.key})
			}
			return
		}
		for _, o := range n.ring.OwnersFor(e.key) {
			if o != n.id {
				out = append(out, sent{o, e.key})
			}
		}
	})
	return out
}

// TestDirtyQueuesMatchFullScan drives one node through seeded random
// histories of every operation that dirties, replaces or drops an entry,
// and at random points compares what gossipTick and pushTick send against
// referenceSends — with an unbounded memory tier and with one small
// enough that dirty entries are demoted to disk before they are sent.
func TestDirtyQueuesMatchFullScan(t *testing.T) {
	for _, memCapacity := range []int{0, 400} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("mem=%d/seed=%d", memCapacity, seed), func(t *testing.T) {
				runDirtyHistory(t, seed, memCapacity)
			})
		}
	}
}

func runDirtyHistory(t *testing.T, seed int64, memCapacity int) {
	const (
		latency = 200 * time.Microsecond
		settle  = 2 * time.Millisecond // any one-way message sent before it has been handled after it
		steps   = 500
	)
	k := vtime.NewKernel(seed)
	defer k.Stop()
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(latency)})
	peers := []simnet.NodeID{"p1", "p2", "p3"}
	caches := []simnet.NodeID{"c1", "c2", "c3"}
	ring := NewRing(2, 8, append([]simnet.NodeID{"n0"}, peers...))
	cfg := DefaultNodeConfig()
	cfg.MemCapacity = memCapacity
	n := NewNode(k, net.AddNode("n0"), ring, cfg)
	n.disp.Start() // serve requests; the test runs the ticks itself

	// Peers and caches log what reaches them. Latency is constant and
	// bandwidth unlimited, so arrivals interleave across sinks in exactly
	// the order the node sent them.
	var gossiped, pushed []sent
	for _, id := range append(slices.Clone(peers), caches...) {
		ep := net.AddNode(id)
		k.Go("sink", func() {
			for {
				switch b := ep.Recv().Payload.(type) {
				case *GossipMsg:
					gossiped = append(gossiped, sent{ep.ID(), b.Key})
				case *KeyUpdatePush:
					pushed = append(pushed, sent{ep.ID(), b.Key})
				}
			}
		})
	}

	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	key := func() string { return keys[rng.Intn(len(keys))] }
	clock := int64(0)
	value := func() *lattice.LWW {
		clock++
		return lattice.NewLWW(lattice.Timestamp{Clock: clock, Node: 1}, make([]byte, 10+rng.Intn(70)))
	}
	var checks, messages, onDiskWhenSent int
	index := mapIndex{}

	k.Run("driver", func() {
		cl := net.AddNode("driver")
		keyset := func(u KeysetUpdate) {
			cl.Send("n0", u, 64)
			index.apply(u)
		}
		call := func(body any) {
			if _, err := cl.Call("n0", body, 64, time.Second); err != nil {
				t.Errorf("%T: %v", body, err)
			}
		}
		ticks := [dirtyKinds]struct {
			name string
			run  func()
			log  *[]sent
		}{
			forRepl: {"gossipTick", n.gossipTick, &gossiped},
			forPush: {"pushTick", n.pushTick, &pushed},
		}
		check := func(kind dirtyKind) {
			tick := ticks[kind]
			want := referenceSends(n, index, kind)
			for _, q := range n.st.dirty[kind] {
				if n.st.disk[q.key] == q {
					onDiskWhenSent++
				}
			}
			*tick.log = (*tick.log)[:0]
			tick.run()
			k.Sleep(settle)
			if !slices.Equal(*tick.log, want) {
				t.Errorf("%s sent %v, a full scan sends %v", tick.name, *tick.log, want)
			}
			if left := len(n.st.dirty[kind]); left != 0 {
				t.Errorf("%s left %d entries queued", tick.name, left)
			}
			checks++
			messages += len(want)
		}
		// Give the pushes somewhere to go from the start.
		for _, c := range caches {
			keyset(KeysetUpdate{Cache: c, Added: keys[:len(keys)/2]})
		}
		k.Sleep(settle)

		for step := 0; step < steps && !t.Failed(); step++ {
			switch r := rng.Intn(100); {
			case r < 30:
				call(&PutReq{Key: key(), Lat: value()})
			case r < 40:
				cl.Send("n0", &GossipMsg{Key: key(), Lat: value()}, 64)
				k.Sleep(settle)
			case r < 50:
				call(DeleteReq{Key: key()})
			case r < 60: // the same key gone and back between two ticks
				kk := key()
				call(DeleteReq{Key: kk})
				call(&PutReq{Key: kk, Lat: value()})
			case r < 70: // a transaction over one or two keys, mostly committed
				clock++
				id := fmt.Sprintf("t%d", step)
				items := []core.TxnWrite{{Key: key(), Payload: make([]byte, 20), Blind: true}}
				if rng.Intn(2) == 0 {
					items = append(items, core.TxnWrite{Key: key(), Payload: make([]byte, 40), Blind: true})
				}
				call(txn.PrepareReq{TxnID: id, ReqID: id, Clock: clock, Node: 1, Items: items})
				cl.Send("n0", txn.DecisionMsg{TxnID: id, Commit: rng.Intn(4) > 0}, 16)
				k.Sleep(settle)
			case r < 78: // a read promotes a demoted entry, dirty or not
				call(&GetReq{Key: key()})
			case r < 84:
				u := KeysetUpdate{Cache: caches[rng.Intn(len(caches))]}
				if rng.Intn(2) == 0 {
					u.Added = []string{key(), key()}
				} else {
					u.Removed = []string{key(), key()}
				}
				keyset(u)
				k.Sleep(settle)
			case r < 92:
				check(forRepl)
			default:
				check(forPush)
			}
		}
		check(forRepl)
		check(forPush)
	})

	// The histories must actually reach the cases the queues exist for.
	if messages < checks {
		t.Errorf("%d checks compared only %d messages: the history dirties too little", checks, messages)
	}
	if memCapacity > 0 && onDiskWhenSent == 0 {
		t.Error("no dirty entry was ever on disk at a tick: the memory tier is too large to test demotion")
	}
}

// TestIdleTickAllocatesNothing is the tripwire for a tick whose cost
// follows the resident set: with 50k keys stored and none dirty, a gossip
// round and a push round must not allocate at all (the full scan copied
// and sorted every key, twice per tick).
func TestIdleTickAllocatesNothing(t *testing.T) {
	k := vtime.NewKernel(1)
	defer k.Stop()
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(time.Millisecond)})
	ring := NewRing(2, 8, []simnet.NodeID{"n0", "p1"})
	net.AddNode("p1")
	n := NewNode(k, net.AddNode("n0"), ring, DefaultNodeConfig())
	for i := 0; i < 50000; i++ {
		e, _ := n.st.merge(fmt.Sprintf("key-%05d", i), lattice.NewLWW(lattice.Timestamp{Clock: 1, Node: 1}, []byte("v")), 0)
		if i%500 == 0 {
			n.st.markDirty(e, forRepl, forPush)
		}
	}
	// One working round first: an idle tick is one that follows real ones.
	n.gossipTick()
	n.pushTick()
	if sentMsgs := net.MessagesSent; sentMsgs != 100 {
		t.Fatalf("the working round sent %d messages, want 100 (one gossip per dirty key)", sentMsgs)
	}
	if allocs := testing.AllocsPerRun(20, func() { n.gossipTick(); n.pushTick() }); allocs != 0 {
		t.Fatalf("an idle gossip+push round over 50k keys allocates %.0f times, want 0", allocs)
	}
}
