package cache

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
)

// TestPushedMessageIsSharedAndUnchanged subscribes five endpoints to a
// key whose Anna value is a two-sibling capsule and checks that one push
// tick hands every subscriber the same *anna.KeyUpdatePush, then that
// the message is unchanged after each of the rig's two caches ingests
// it: one into an empty store, one by merging it with a concurrent local
// version, which builds a new capsule of both.
func TestPushedMessageIsSharedAndUnchanged(t *testing.T) {
	r := newRig(t, core.MK)
	var subs []*simnet.Endpoint
	for i := 0; i < 5; i++ {
		subs = append(subs, r.net.AddNode(simnet.NodeID(fmt.Sprintf("sub-%d", i))))
	}
	r.k.Run("push", func() {
		r.client.Put("k", lattice.NewCausal(lattice.VectorClock{"x": 1}, nil, []byte("x")))
		for _, s := range subs {
			r.client.PublishKeyset(s.ID(), []string{"k"}, nil)
		}
		r.k.Sleep(10 * time.Millisecond)
		r.client.Put("k", lattice.NewCausal(lattice.VectorClock{"y": 1}, nil, []byte("y")))
		r.k.Sleep(250 * time.Millisecond) // past the push interval
		var msgs []simnet.Message
		for _, s := range subs {
			m, ok := s.TryRecv()
			if !ok {
				t.Fatalf("%s received no push", s.ID())
			}
			msgs = append(msgs, m)
		}
		push := msgs[0].Payload.(*anna.KeyUpdatePush)
		for i, m := range msgs {
			if p, ok := m.Payload.(*anna.KeyUpdatePush); !ok || p != push {
				t.Fatalf("subscriber %d received %T %p, want the shared %p", i, m.Payload, p, push)
			}
		}
		capsule := push.Lat.(*lattice.Causal)
		digest, sibs := capsule.Digest(), capsule.Siblings()
		if push.Key != "k" || len(sibs) != 2 {
			t.Fatalf("pushed %s with %d siblings, want k with 2", push.Key, len(sibs))
		}
		r.a.merge("k", lattice.NewCausal(lattice.VectorClock{"z": 1}, nil, []byte("z")))
		for i, m := range msgs {
			c := []*Cache{r.a, r.b}[i%2]
			c.handlePush(m, push)
			if push.Key != "k" || push.Lat != lattice.Lattice(capsule) || capsule.Digest() != digest ||
				!slices.EqualFunc(capsule.Siblings(), sibs, func(a, b []byte) bool { return string(a) == string(b) }) {
				t.Fatalf("the push changed after %s ingested it", c.ID())
			}
		}
		if got := len(r.a.store["k"].(*lattice.Causal).Siblings()); got != 3 {
			t.Fatalf("the merging cache holds %d siblings, want 3", got)
		}
		if r.b.store["k"] != lattice.Lattice(capsule) {
			t.Fatal("the empty cache does not hold the pushed capsule itself")
		}
	})
}
