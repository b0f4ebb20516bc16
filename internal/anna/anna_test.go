package anna

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// nodeIDs returns the node IDs prefix0 to prefix<n-1>.
func nodeIDs(prefix string, n int) []simnet.NodeID {
	out := make([]simnet.NodeID, n)
	for i := range out {
		out[i] = simnet.NodeID(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// harness boots a kernel, network, and KVS for tests.
func harness(t *testing.T, cfg Config) (*vtime.Kernel, *simnet.Network, *KVS, *Client) {
	t.Helper()
	k := vtime.NewKernel(99)
	t.Cleanup(k.Stop)
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(200 * time.Microsecond)})
	kv := NewKVS(k, net, cfg)
	cl := kv.NewClient(net.AddNode("test-client"), 0)
	return k, net, kv, cl
}

func lww(k *vtime.Kernel, val string) *lattice.LWW {
	return lattice.NewLWW(lattice.Timestamp{Clock: int64(k.Now()), Node: 1}, []byte(val))
}

func TestPutGetRoundTrip(t *testing.T) {
	k, _, _, cl := harness(t, DefaultConfig())
	k.Run("main", func() {
		if err := cl.Put("k1", lww(k, "v1")); err != nil {
			t.Fatal(err)
		}
		lat, found, err := cl.Get("k1")
		if err != nil || !found {
			t.Fatalf("get: found=%v err=%v", found, err)
		}
		if string(lat.(*lattice.LWW).Value) != "v1" {
			t.Fatalf("value = %q", lat.(*lattice.LWW).Value)
		}
	})
}

func TestMultiGetGroupsByPrimary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	k, _, _, cl := harness(t, cfg)
	k.Run("main", func() {
		keys := make([]string, 12)
		for i := range keys {
			keys[i] = fmt.Sprintf("mg-%d", i)
			if err := cl.Put(keys[i], lww(k, keys[i]+"!")); err != nil {
				t.Fatal(err)
			}
		}
		before := cl.Stats
		found := make([]lattice.Lattice, len(keys)+1)
		missing, err := cl.MultiGet(append(append([]string{}, keys...), "mg-absent"), found...)
		if err != nil {
			t.Fatal(err)
		}
		if len(found) != len(keys)+1 || found[len(keys)] != nil {
			t.Fatalf("found = %v for %d keys and one absent", found, len(keys))
		}
		for i, key := range keys {
			lat := found[i]
			if lat == nil || string(lat.(*lattice.LWW).Value) != key+"!" {
				t.Fatalf("key %s = %v", key, lat)
			}
		}
		if len(missing) != 1 || missing[0] != "mg-absent" {
			t.Fatalf("missing = %v", missing)
		}
		// Round trips are bounded by the node count, not the key count.
		rpcs := cl.Stats.MultiGetRPCs - before.MultiGetRPCs
		if rpcs < 1 || rpcs > int64(cfg.Nodes) {
			t.Fatalf("multi-get issued %d RPCs for %d keys on %d nodes", rpcs, len(keys)+1, cfg.Nodes)
		}
		if cl.Stats.GetRPCs != before.GetRPCs {
			t.Fatalf("multi-get fell back to single gets: %d", cl.Stats.GetRPCs-before.GetRPCs)
		}
	})
}

func TestMultiGetFallsBackWhenPrimaryDown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.Replication = 2
	k, net, kv, cl := harness(t, cfg)
	k.Run("main", func() {
		if err := cl.Put("fb-k", lww(k, "v")); err != nil {
			t.Fatal(err)
		}
		// Let gossip replicate to the secondary, then take the primary
		// down: the grouped call times out and the per-key replica walk
		// must still find the value.
		k.Sleep(200 * time.Millisecond)
		net.SetDown(kv.Ring().PrimaryFor("fb-k"), true)
		found := make([]lattice.Lattice, 1)
		missing, err := cl.MultiGet([]string{"fb-k"}, found...)
		if err != nil {
			t.Fatal(err)
		}
		if len(missing) != 0 || found[0] == nil {
			t.Fatalf("fallback failed: found=%v missing=%v", found, missing)
		}
	})
}

func TestGetMissingKey(t *testing.T) {
	k, _, _, cl := harness(t, DefaultConfig())
	k.Run("main", func() {
		_, found, err := cl.Get("nope")
		if err != nil || found {
			t.Fatalf("missing key: found=%v err=%v", found, err)
		}
	})
}

func TestPutMergesConcurrentWriters(t *testing.T) {
	k, net, kv, _ := harness(t, DefaultConfig())
	c1 := kv.NewClient(net.AddNode("c1"), 0)
	c2 := kv.NewClient(net.AddNode("c2"), 0)
	k.Run("main", func() {
		if err := c1.Put("set", lattice.NewSet("a", "c")); err != nil {
			t.Fatal(err)
		}
		if err := c2.Put("set", lattice.NewSet("b", "c")); err != nil {
			t.Fatal(err)
		}
		k.Sleep(200 * time.Millisecond) // let gossip settle
		lat, found, _ := c1.Get("set")
		if !found || !slices.Equal(lat.(*lattice.Set).Elems(), []string{"a", "b", "c"}) {
			t.Fatalf("merged set = %+v found=%v", lat, found)
		}
	})
}

func TestLWWLastWriteWinsAcrossClients(t *testing.T) {
	k, net, kv, _ := harness(t, DefaultConfig())
	c1 := kv.NewClient(net.AddNode("c1"), 0)
	c2 := kv.NewClient(net.AddNode("c2"), 0)
	k.Run("main", func() {
		c1.Put("k", lattice.NewLWW(lattice.Timestamp{Clock: 100, Node: 1}, []byte("old")))
		c2.Put("k", lattice.NewLWW(lattice.Timestamp{Clock: 200, Node: 2}, []byte("new")))
		c1.Put("k", lattice.NewLWW(lattice.Timestamp{Clock: 150, Node: 1}, []byte("mid")))
		lat, _, _ := c1.Get("k")
		if got := string(lat.(*lattice.LWW).Value); got != "new" {
			t.Fatalf("LWW = %q, want new", got)
		}
	})
}

func TestReplicationGossipConverges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Replication = 3
	k, _, kv, cl := harness(t, cfg)
	k.Run("main", func() {
		if err := cl.Put("rk", lww(k, "v")); err != nil {
			t.Fatal(err)
		}
		k.Sleep(300 * time.Millisecond) // > gossip interval
		owners := kv.Ring().OwnersFor("rk")
		if len(owners) != 3 {
			t.Fatalf("owners = %v", owners)
		}
		for _, o := range owners {
			var n *Node
			for _, nd := range kv.Nodes() {
				if nd.ID() == o {
					n = nd
				}
			}
			if exists, _ := n.HasKey("rk"); !exists {
				t.Fatalf("replica %s missing key after gossip", o)
			}
		}
	})
}

func TestFaultToleranceReadFromReplica(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.Replication = 2
	k, net, kv, cl := harness(t, cfg)
	k.Run("main", func() {
		cl.Put("fk", lww(k, "survives"))
		k.Sleep(200 * time.Millisecond) // replicate
		// Kill the primary; reads must fall through to the replica.
		primary := kv.Ring().PrimaryFor("fk")
		net.SetDown(primary, true)
		lat, found, err := cl.Get("fk")
		if err != nil || !found {
			t.Fatalf("get after primary death: found=%v err=%v", found, err)
		}
		if string(lat.(*lattice.LWW).Value) != "survives" {
			t.Fatal("wrong value from replica")
		}
		// Writes must also succeed against the surviving replica.
		if err := cl.Put("fk", lww(k, "updated")); err != nil {
			t.Fatalf("put after primary death: %v", err)
		}
	})
}

func TestAllReplicasDownReturnsUnavailable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.Replication = 1
	k, net, kv, cl := harness(t, cfg)
	k.Run("main", func() {
		cl.Put("dk", lww(k, "x"))
		for _, n := range kv.Nodes() {
			net.SetDown(n.ID(), true)
		}
		if _, _, err := cl.Get("dk"); err == nil {
			t.Fatal("expected unavailable error")
		}
		if err := cl.Put("dk", lww(k, "y")); err == nil {
			t.Fatal("expected put failure")
		}
	})
}

func TestDelete(t *testing.T) {
	k, _, _, cl := harness(t, DefaultConfig())
	k.Run("main", func() {
		cl.Put("dk", lww(k, "x"))
		if err := cl.Delete("dk"); err != nil {
			t.Fatal(err)
		}
		_, found, _ := cl.Get("dk")
		if found {
			t.Fatal("key survived delete")
		}
	})
}

// TestSetRemoveLeavesReadersAlone: a read shares the stored Set, so a
// removal must store a new value rather than edit the old one. The set a
// reader got before RemoveFromSet still holds the element; the next read
// does not, and its size is re-accounted.
func TestSetRemoveLeavesReadersAlone(t *testing.T) {
	k, _, kv, cl := harness(t, DefaultConfig())
	k.Run("main", func() {
		if err := cl.Put("reg", lattice.NewSet("a", "b", "c")); err != nil {
			t.Fatal(err)
		}
		before, _, _ := cl.Get("reg")
		if err := cl.RemoveFromSet("reg", []string{"b"}); err != nil {
			t.Fatal(err)
		}
		after, found, _ := cl.Get("reg")
		if got := before.(*lattice.Set).Elems(); !slices.Equal(got, []string{"a", "b", "c"}) {
			t.Fatalf("the set read before the removal now holds %v", got)
		}
		if !found || !slices.Equal(after.(*lattice.Set).Elems(), []string{"a", "c"}) {
			t.Fatalf("the set read after the removal holds %v", after)
		}
		for _, n := range kv.Nodes() {
			if e := n.st.mem["reg"]; e != nil && e.size != after.ByteSize() {
				t.Fatalf("%s accounts %d bytes for a %d-byte set", n.ID(), e.size, after.ByteSize())
			}
		}
	})
}

// TestEmptyRingIsUnavailable: with no storage node on the ring every
// client operation reports ErrUnavailable rather than drawing a replica.
func TestEmptyRingIsUnavailable(t *testing.T) {
	k := vtime.NewKernel(1)
	defer k.Stop()
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(200 * time.Microsecond)})
	kv := &KVS{k: k, ring: NewRing(1, vnodesPerNode, nil)}
	cl := kv.NewClient(net.AddNode("test-client"), 0)
	k.Run("main", func() {
		if err := cl.Put("k1", lww(k, "v1")); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("Put = %v, want ErrUnavailable", err)
		}
		if _, _, err := cl.Get("k1"); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("Get = %v, want ErrUnavailable", err)
		}
		if _, err := cl.MultiGet([]string{"k1"}); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("MultiGet = %v, want ErrUnavailable", err)
		}
	})
}

func TestTieredStoreDemotionAndPromotion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.Node.MemCapacity = 4096
	k, _, kv, cl := harness(t, cfg)
	k.Run("main", func() {
		// Write far beyond memory capacity.
		for i := 0; i < 40; i++ {
			val := make([]byte, 256)
			cl.Put(fmt.Sprintf("big-%d", i), lattice.NewLWW(lattice.Timestamp{Clock: int64(i)}, val))
			k.Sleep(time.Millisecond) // distinct LRU timestamps
		}
		n := kv.Nodes()[0]
		if len(n.st.disk) == 0 {
			t.Fatal("nothing demoted to disk tier")
		}
		if n.st.memBytes > 4096 {
			t.Fatalf("memory tier over capacity: %d", n.st.memBytes)
		}
		// Access an old (demoted) key: it must be served and promoted.
		before := k.Now()
		lat, found, err := cl.Get("big-0")
		if err != nil || !found || lat == nil {
			t.Fatalf("disk-tier get failed: %v %v", found, err)
		}
		coldLatency := k.Now().Sub(before)
		if exists, onDisk := n.HasKey("big-0"); !exists || onDisk {
			t.Fatal("key not promoted to memory tier")
		}
		before = k.Now()
		cl.Get("big-0")
		hotLatency := k.Now().Sub(before)
		if coldLatency <= hotLatency {
			t.Fatalf("disk penalty missing: cold=%v hot=%v", coldLatency, hotLatency)
		}
	})
}

func TestKeysetIndexAndUpdatePush(t *testing.T) {
	k, net, _, cl := harness(t, DefaultConfig())
	cacheEP := net.AddNode("cache-vm0")
	k.Run("main", func() {
		cl.Put("watched", lww(k, "v1"))
		// The cache subscribes via a keyset snapshot.
		cl.PublishKeyset("cache-vm0", []string{"watched"}, nil)
		k.Sleep(50 * time.Millisecond)
		// An update must be pushed to the cache within the push interval.
		cl.Put("watched", lww(k, "v2"))
		deadline := 300 * time.Millisecond
		m, ok := cacheEP.RecvTimeout(deadline)
		if !ok {
			t.Fatal("no update push received")
		}
		push, isPush := m.Payload.(*KeyUpdatePush)
		if !isPush || push.Key != "watched" {
			t.Fatalf("unexpected message %+v", m.Payload)
		}
		if string(push.Lat.(*lattice.LWW).Value) != "v2" {
			t.Fatalf("pushed stale value %q", push.Lat.(*lattice.LWW).Value)
		}
		// Unsubscribe; further updates must not be pushed.
		cl.PublishKeyset("cache-vm0", nil, []string{"watched"})
		k.Sleep(50 * time.Millisecond)
		cl.Put("watched", lww(k, "v3"))
		if m, ok := cacheEP.RecvTimeout(deadline); ok {
			t.Fatalf("push after unsubscribe: %+v", m.Payload)
		}
	})
}

func TestIndexOverheadAccounting(t *testing.T) {
	k, _, kv, cl := harness(t, DefaultConfig())
	k.Run("main", func() {
		cl.Put("idx", lww(k, "v"))
		cl.PublishKeyset("cache-a", []string{"idx"}, nil)
		cl.PublishKeyset("cache-bb", []string{"idx"}, nil)
		k.Sleep(10 * time.Millisecond)
		overheads := kv.IndexOverheads()
		if len(overheads) != 1 {
			t.Fatalf("index entries = %d, want 1", len(overheads))
		}
		want := len("cache-a") + 4 + len("cache-bb") + 4
		if overheads[0] != want {
			t.Fatalf("overhead = %d, want %d", overheads[0], want)
		}
	})
}

func TestRingDistributesKeys(t *testing.T) {
	r := NewRing(1, 64, nodeIDs("n", 4))
	counts := map[simnet.NodeID]int{}
	for i := 0; i < 4000; i++ {
		counts[r.PrimaryFor(fmt.Sprintf("key-%d", i))]++
	}
	for n, c := range counts {
		if c < 400 || c > 2200 {
			t.Fatalf("node %s owns %d of 4000 keys — distribution too skewed: %v", n, c, counts)
		}
	}
}

func TestRingOwnersDistinctAndStable(t *testing.T) {
	r := NewRing(3, 32, nodeIDs("n", 5))
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%d", i)
		owners := r.OwnersFor(key)
		if len(owners) != 3 {
			t.Fatalf("owners = %v", owners)
		}
		seen := map[simnet.NodeID]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("duplicate owner for %s: %v", key, owners)
			}
			seen[o] = true
		}
		again := r.OwnersFor(key)
		for j := range owners {
			if owners[j] != again[j] {
				t.Fatal("owner order unstable")
			}
		}
	}
}
