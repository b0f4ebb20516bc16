package cache

import (
	"fmt"
	"math"
	"testing"
	"time"

	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
)

// TestCausalPathAllocations pins what the DSC data plane allocates on a
// warm cache, the write-back and Anna's side of it included. A first read
// of a 3-sibling timeline capsule, each sibling depending on its own
// post, allocates nothing: the capsule's joined clock was stored where it
// was built, and the dependency walk and the snapshots allocate nothing.
// ReadAll adds only the sibling slice it returns (1). A
// read-modify-write declaring one dependency costs the ticked clock and
// the capsule, which holds the one-entry dependency set (2): its two
// reads hit one-sibling capsules, the merge returns the new capsule, the
// write-back's put runs on a pooled record, the Put's body comes off the
// Anna client's free list, and its owner list is the ring's. The session metadata and the request's snapshot table are
// reused, so neither is counted. A new request's first read after the
// previous request's DAGDone takes that request's emptied table off the
// free list and allocates nothing. A new allocation per call fails it;
// lower the numbers when one goes.
func TestCausalPathAllocations(t *testing.T) {
	r := newRig(t, core.DSC)
	meta := core.NewSessionMeta()
	payload := []byte("timeline")
	depKeys := []string{"post-0"}
	r.k.Run("setup", func() {
		for i := 0; i < 3; i++ {
			w, post := fmt.Sprintf("w%d", i), fmt.Sprintf("post-%d", i)
			r.client.Put(post, lattice.NewCausal(lattice.VectorClock{w: 1}, nil, []byte(post)))
			r.client.Put("tl", lattice.NewCausal(lattice.VectorClock{w: 2},
				map[string]lattice.VectorClock{post: {w: 1}}, []byte{byte(i)}))
		}
		if _, _, err := r.a.Read("warm", "tl", &meta); err != nil {
			t.Fatal(err)
		}
		r.a.Write("warm", "rmw", payload, &meta, "wa")
		r.a.FlushWrites()
		r.k.Sleep(time.Second) // the keyset publishes; Anna indexes the cache
		if tl, _, _ := r.client.Get("tl"); len(tl.(*lattice.Causal).Siblings()) != 3 {
			t.Fatalf("timeline capsule has %d siblings, want 3", len(tl.(*lattice.Causal).Siblings()))
		}
	})

	done := [2]string{"req-even", "req-odd"} // successive requests, each ended by DAGDone
	next := 0
	cases := []struct {
		name string
		want float64 // measured; raise it only for an allocation that outlives the call
		call func()
	}{
		{"read of 3 siblings", 0, func() {
			if _, _, err := r.a.Read("req", "tl", &meta); err != nil {
				t.Fatal(err)
			}
		}},
		{"ReadAll of 3 siblings", 1, func() {
			if sibs, _, err := r.a.ReadAll("req", "tl", &meta); err != nil || len(sibs) != 3 {
				t.Fatalf("ReadAll = %d siblings, %v", len(sibs), err)
			}
		}},
		{"read-modify-write, one dependency", 2, func() {
			if _, _, err := r.a.Read("req", "post-0", &meta); err != nil {
				t.Fatal(err)
			}
			if _, _, err := r.a.Read("req", "rmw", &meta); err != nil {
				t.Fatal(err)
			}
			if _, err := r.a.WriteWithDeps("req", "rmw", payload, &meta, "wa", depKeys); err != nil {
				t.Fatal(err)
			}
		}},
		{"new request's read after DAGDone", 0, func() {
			id := done[next%2]
			next++
			if _, _, err := r.a.Read(id, "tl", &meta); err != nil {
				t.Fatal(err)
			}
			r.a.handleDAGDone(simnet.Message{}, &core.DAGDone{ReqID: id})
		}},
	}
	for _, c := range cases {
		calls := 0
		body := func() {
			for i := 0; i < calls; i++ {
				clear(meta.ReadSet) // every read is the session's first of its key
				clear(meta.Deps)
				c.call()
			}
			r.a.FlushWrites()
		}
		run := func() { r.k.Run("measure", body) }
		calls = 50
		run() // warm the pools, the kernel's processes and the snapshot table
		// The difference between 100 and 50 calls per Run is 50 calls'
		// cost, without what one Run and the idle ticks cost.
		base := testing.AllocsPerRun(5, run)
		calls = 100
		got := (testing.AllocsPerRun(5, run) - base) / 50
		t.Logf("%s: %.2f allocations", c.name, got)
		if math.Round(got*10)/10 > c.want {
			t.Errorf("%s: %.2f allocations, want at most %.1f", c.name, got, c.want)
		}
	}
}
