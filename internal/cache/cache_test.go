package cache

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// rig is a two-cache test cluster over a small Anna deployment.
type rig struct {
	k      *vtime.Kernel
	net    *simnet.Network
	kv     *anna.KVS
	a, b   *Cache
	client *anna.Client // direct KVS access for assertions
}

func newRig(t *testing.T, mode core.Mode) *rig {
	t.Helper()
	k := vtime.NewKernel(3)
	t.Cleanup(k.Stop)
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(200 * time.Microsecond)})
	kcfg := anna.DefaultConfig()
	kcfg.Nodes = 2
	kv := anna.NewKVS(k, net, kcfg)

	mk := func(vm string) *Cache {
		ep := net.AddNode(simnet.NodeID("cache-" + vm))
		c := New(k, ep, kv.NewClient(ep, 0), vm, DefaultConfig(mode))
		c.Start()
		return c
	}
	return &rig{
		k:      k,
		net:    net,
		kv:     kv,
		a:      mk("a"),
		b:      mk("b"),
		client: kv.NewClient(net.AddNode("assert-client"), 0),
	}
}

func TestLWWReadThroughAndHit(t *testing.T) {
	r := newRig(t, core.LWW)
	r.k.Run("main", func() {
		r.client.Put("k", lattice.NewLWW(lattice.Timestamp{Clock: 1}, []byte("v")))
		start := r.k.Now()
		val, _, err := r.a.Read("req1", "k", nil)
		if err != nil || string(val) != "v" {
			t.Fatalf("read = %q, %v", val, err)
		}
		missLatency := r.k.Now().Sub(start)
		if !r.a.Contains("k") {
			t.Fatal("miss did not fill cache")
		}
		start = r.k.Now()
		if _, _, err := r.a.Read("req2", "k", nil); err != nil {
			t.Fatal(err)
		}
		hitLatency := r.k.Now().Sub(start)
		if hitLatency >= missLatency {
			t.Fatalf("hit (%v) not faster than miss (%v)", hitLatency, missLatency)
		}
		if r.a.Stats.Hits != 1 || r.a.Stats.Misses != 1 {
			t.Fatalf("stats = %+v", r.a.Stats)
		}
	})
}

func TestLWWReadMissingKey(t *testing.T) {
	r := newRig(t, core.LWW)
	r.k.Run("main", func() {
		_, _, err := r.a.Read("req", "ghost", nil)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v, want ErrNotFound", err)
		}
	})
}

func TestWriteAcksLocallyThenReachesKVS(t *testing.T) {
	r := newRig(t, core.LWW)
	r.k.Run("main", func() {
		start := r.k.Now()
		_, err := r.a.Write("req", "wk", []byte("val"), nil, "w1")
		if err != nil {
			t.Fatal(err)
		}
		ackLatency := r.k.Now().Sub(start)
		// The ack must not pay a KVS round trip (~>400µs); IPC is 50µs.
		if ackLatency > 200*time.Microsecond {
			t.Fatalf("write ack took %v — not a local ack", ackLatency)
		}
		r.a.FlushWrites()
		r.k.Sleep(5 * time.Millisecond)
		lat, found, err := r.client.Get("wk")
		if err != nil || !found {
			t.Fatalf("KVS get: %v %v", found, err)
		}
		if string(lat.(*lattice.LWW).Value) != "val" {
			t.Fatal("KVS has wrong value")
		}
	})
}

func TestUpdatePushRefreshesCache(t *testing.T) {
	r := newRig(t, core.LWW)
	r.k.Run("main", func() {
		r.client.Put("pk", lattice.NewLWW(lattice.Timestamp{Clock: 1}, []byte("v1")))
		if _, _, err := r.a.Read("req", "pk", nil); err != nil {
			t.Fatal(err)
		}
		// Wait past the keyset interval so the cache subscribes, then
		// update via the KVS directly.
		r.k.Sleep(700 * time.Millisecond)
		r.client.Put("pk", lattice.NewLWW(lattice.Timestamp{Clock: int64(r.k.Now())}, []byte("v2")))
		r.k.Sleep(300 * time.Millisecond) // > push interval
		val, _, err := r.a.Read("req2", "pk", nil)
		if err != nil || string(val) != "v2" {
			t.Fatalf("cache served %q after push, want v2 (err %v)", val, err)
		}
		if r.a.Stats.UpdatesPushed == 0 {
			t.Fatal("no push recorded")
		}
	})
}

func TestRRExactLocalMatchServedLocally(t *testing.T) {
	r := newRig(t, core.DSRR)
	r.k.Run("main", func() {
		r.client.Put("x", lattice.NewLWW(lattice.Timestamp{Clock: 5}, []byte("v1")))
		meta := core.NewSessionMeta()
		v1, _, err := r.a.Read("dag1", "x", &meta)
		if err != nil || string(v1) != "v1" {
			t.Fatal(err)
		}
		// Second read at the same cache: exact version still present.
		before := r.a.Stats.UpstreamFetch
		v2, _, err := r.a.Read("dag1", "x", &meta)
		if err != nil || string(v2) != "v1" {
			t.Fatalf("repeat read = %q, %v", v2, err)
		}
		if r.a.Stats.UpstreamFetch != before {
			t.Fatal("local exact match went upstream")
		}
	})
}

func TestRRVersionMismatchFetchesUpstream(t *testing.T) {
	r := newRig(t, core.DSRR)
	r.k.Run("main", func() {
		r.client.Put("x", lattice.NewLWW(lattice.Timestamp{Clock: 5}, []byte("v1")))
		meta := core.NewSessionMeta()
		// Upstream function reads v1 at cache A (snapshotted there).
		if _, _, err := r.a.Read("dag1", "x", &meta); err != nil {
			t.Fatal(err)
		}
		// Meanwhile the key advances to v2, which cache B picks up.
		if _, err := r.b.Write("other", "x", []byte("v2"), nil, "w9"); err != nil {
			t.Fatal(err)
		}
		// Downstream function on cache B must read v1, not B's local v2.
		val, _, err := r.b.Read("dag1", "x", &meta)
		if err != nil {
			t.Fatal(err)
		}
		if string(val) != "v1" {
			t.Fatalf("repeatable read violated: downstream saw %q", val)
		}
		if r.b.Stats.UpstreamFetch != 1 {
			t.Fatalf("upstream fetches = %d, want 1", r.b.Stats.UpstreamFetch)
		}
		// A session-free read at B sees the fresh value.
		fresh, _, _ := r.b.Read("other2", "x", nil)
		if string(fresh) != "v2" {
			t.Fatalf("fresh read = %q", fresh)
		}
	})
}

func TestRRDagSeesItsOwnWrite(t *testing.T) {
	r := newRig(t, core.DSRR)
	r.k.Run("main", func() {
		r.client.Put("x", lattice.NewLWW(lattice.Timestamp{Clock: 5}, []byte("v1")))
		meta := core.NewSessionMeta()
		if _, _, err := r.a.Read("dag1", "x", &meta); err != nil {
			t.Fatal(err)
		}
		if _, err := r.a.Write("dag1", "x", []byte("mine"), &meta, "w1"); err != nil {
			t.Fatal(err)
		}
		// Downstream on cache B: must see the DAG's own update.
		val, _, err := r.b.Read("dag1", "x", &meta)
		if err != nil || string(val) != "mine" {
			t.Fatalf("downstream read = %q, %v", val, err)
		}
	})
}

func TestRRSnapshotEvictionOnDAGDone(t *testing.T) {
	r := newRig(t, core.DSRR)
	r.k.Run("main", func() {
		r.client.Put("x", lattice.NewLWW(lattice.Timestamp{Clock: 5}, []byte("v1")))
		meta := core.NewSessionMeta()
		r.a.Read("dag1", "x", &meta)
		if r.a.SnapshotCount() != 1 {
			t.Fatalf("snapshots = %d", r.a.SnapshotCount())
		}
		// Sink notifies completion.
		r.net.Send("elsewhere", r.a.ID(), &core.DAGDone{ReqID: "dag1"}, 16)
		r.k.Sleep(5 * time.Millisecond)
		if r.a.SnapshotCount() != 0 {
			t.Fatal("snapshots survived DAGDone")
		}
	})
}

func TestRRUpstreamSnapshotGoneIsError(t *testing.T) {
	r := newRig(t, core.DSRR)
	r.k.Run("main", func() {
		r.client.Put("x", lattice.NewLWW(lattice.Timestamp{Clock: 5}, []byte("v1")))
		meta := core.NewSessionMeta()
		r.a.Read("dag1", "x", &meta)
		r.b.Write("other", "x", []byte("v2"), nil, "w9")
		r.a.DropSnapshots() // simulated upstream cache failure
		_, _, err := r.b.Read("dag1", "x", &meta)
		if !errors.Is(err, ErrSnapshotGone) {
			t.Fatalf("err = %v, want ErrSnapshotGone", err)
		}
	})
}

func TestSKConcurrentWritesBothPreserved(t *testing.T) {
	r := newRig(t, core.SK)
	r.k.Run("main", func() {
		// Two writers on different caches write the same key without
		// seeing each other: concurrent versions.
		if _, err := r.a.Write("r1", "k", []byte("from-a"), nil, "wa"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.b.Write("r2", "k", []byte("from-b"), nil, "wb"); err != nil {
			t.Fatal(err)
		}
		r.a.FlushWrites()
		r.b.FlushWrites()
		r.k.Sleep(300 * time.Millisecond) // gossip settle
		lat, found, err := r.client.Get("k")
		if err != nil || !found {
			t.Fatal(err)
		}
		cap := lat.(*lattice.Causal)
		if len(cap.Siblings()) != 2 {
			t.Fatalf("siblings = %d, want 2 (LWW would have dropped one)", len(cap.Siblings()))
		}
	})
}

func TestSKReadModifyWriteDominates(t *testing.T) {
	r := newRig(t, core.SK)
	r.k.Run("main", func() {
		r.a.Write("r1", "k", []byte("v1"), nil, "wa")
		// Same cache: the second write sees the first, so it dominates.
		r.a.Write("r2", "k", []byte("v2"), nil, "wa")
		r.a.FlushWrites()
		r.k.Sleep(300 * time.Millisecond)
		lat, _, _ := r.client.Get("k")
		cap := lat.(*lattice.Causal)
		if len(cap.Siblings()) != 1 || string(cap.DisplayValue()) != "v2" {
			t.Fatalf("versions = %q", cap.Siblings())
		}
	})
}

func TestMKCausalCutFetchesDependencies(t *testing.T) {
	r := newRig(t, core.MK)
	r.k.Run("main", func() {
		// Session on cache A: write j, read it, then write k (k dep j).
		metaA := core.NewSessionMeta()
		r.a.Write("s1", "j", []byte("jv"), &metaA, "wa")
		if _, _, err := r.a.Read("s1", "j", &metaA); err != nil {
			t.Fatal(err)
		}
		r.a.Write("s1", "k", []byte("kv"), &metaA, "wa")
		r.a.FlushWrites()
		r.k.Sleep(10 * time.Millisecond)
		// Cold cache B reads k: the causal cut requires j locally too.
		if _, _, err := r.b.Read("s2", "k", core.NewSessionMetaP()); err != nil {
			t.Fatal(err)
		}
		if !r.b.Contains("j") {
			t.Fatal("dependency j not pulled into the causal cut")
		}
	})
}

// figure4 sets up the paper's Figure 4 on the rig: cache B holds an old
// l_w; a writer session at cache A advances l to l_u and writes k, which
// depends on l_u; then a DAG session's f reads k at cache A. It returns
// that session's metadata, which pins l to l_u, and l_u's version.
func figure4(t *testing.T, r *rig) (core.SessionMeta, core.VersionRef) {
	t.Helper()
	// Old l_w lands in Anna and in cache B.
	r.b.Write("init", "l", []byte("l_w"), core.NewSessionMetaP(), "w0")
	r.b.FlushWrites()
	r.k.Sleep(10 * time.Millisecond)
	// Writer session on cache A: advance l to l_u, read it, write k.
	metaW := core.NewSessionMeta()
	if _, _, err := r.a.Read("wr", "l", &metaW); err != nil {
		t.Fatal(err)
	}
	r.a.Write("wr", "l", []byte("l_u"), &metaW, "wA")
	_, lu, err := r.a.Read("wr", "l", &metaW)
	if err != nil {
		t.Fatal(err)
	}
	r.a.Write("wr", "k", []byte("k_v"), &metaW, "wA")
	r.a.FlushWrites()
	r.k.Sleep(10 * time.Millisecond)

	// DAG session: f reads k at cache A...
	meta := core.NewSessionMeta()
	kval, _, err := r.a.Read("dag", "k", &meta)
	if err != nil || string(kval) != "k_v" {
		t.Fatalf("f read k = %q, %v", kval, err)
	}
	if len(meta.Deps) == 0 {
		t.Fatal("dependency metadata not shipped")
	}
	return meta, lu
}

func TestDSCFigure4Scenario(t *testing.T) {
	// The paper's Figure 4: f reads k (which depends on l_u) on machine
	// A; g then reads l on machine B whose cache holds an older l_w.
	// Without the protocol g would read l_w, violating causality.
	r := newRig(t, core.DSC)
	r.k.Run("main", func() {
		meta, _ := figure4(t, r)
		// ...and g reads l at cache B, which still has stale l_w.
		lval, _, err := r.b.Read("dag", "l", &meta)
		if err != nil {
			t.Fatal(err)
		}
		if string(lval) != "l_u" {
			t.Fatalf("causality violated: g read %q, want l_u", lval)
		}
		if r.b.Stats.UpstreamFetch == 0 {
			t.Fatal("expected an upstream snapshot fetch")
		}
	})
}

// TestDSCReadAllReturnsTheVersionItRead is Figure 4 with g reading l's
// siblings: ReadAll must return the upstream snapshot the protocol read,
// under the version ref that names it, whether cache B holds the stale
// l_w or no l at all.
func TestDSCReadAllReturnsTheVersionItRead(t *testing.T) {
	for _, local := range []string{"stale", "absent"} {
		r := newRig(t, core.DSC)
		r.k.Run("main", func() {
			meta, lu := figure4(t, r)
			if local == "absent" {
				r.b.Evict("l")
			}
			sibs, ver, err := r.b.ReadAll("dag", "l", &meta)
			if err != nil {
				t.Fatalf("%s local l: ReadAll: %v", local, err)
			}
			if len(sibs) != 1 || string(sibs[0]) != "l_u" {
				t.Fatalf("%s local l: ReadAll = %q, want [l_u]", local, sibs)
			}
			if ver.VC.String() != lu.VC.String() || ver.VCD == 0 {
				t.Fatalf("%s local l: version %s (digest %x), want l_u's %s", local, ver.VC, ver.VCD, lu.VC)
			}
		})
	}
}

func TestDSCWithoutMetadataWouldReadStale(t *testing.T) {
	// Control for the Figure 4 test: with a fresh session (no shipped
	// metadata), cache B serves its stale local version — the anomaly.
	r := newRig(t, core.DSC)
	r.k.Run("main", func() {
		r.b.Write("init", "l", []byte("l_w"), core.NewSessionMetaP(), "w0")
		r.b.FlushWrites()
		r.k.Sleep(10 * time.Millisecond)
		metaW := core.NewSessionMeta()
		r.a.Read("wr", "l", &metaW)
		r.a.Write("wr", "l", []byte("l_u"), &metaW, "wA")
		r.a.FlushWrites()
		r.k.Sleep(10 * time.Millisecond)
		fresh := core.NewSessionMeta()
		lval, _, err := r.b.Read("dag2", "l", &fresh)
		if err != nil {
			t.Fatal(err)
		}
		if string(lval) != "l_w" {
			t.Fatalf("expected stale read without metadata, got %q", lval)
		}
	})
}

func TestDSCRepeatReadPrefersValidLocal(t *testing.T) {
	r := newRig(t, core.DSC)
	r.k.Run("main", func() {
		meta := core.NewSessionMeta()
		r.a.Write("dag", "k", []byte("v"), &meta, "wa")
		if _, _, err := r.a.Read("dag", "k", &meta); err != nil {
			t.Fatal(err)
		}
		before := r.a.Stats.UpstreamFetch
		// Re-read at the same cache: local version equals the read-set
		// version — no upstream traffic.
		if _, _, err := r.a.Read("dag", "k", &meta); err != nil {
			t.Fatal(err)
		}
		if r.a.Stats.UpstreamFetch != before {
			t.Fatal("valid local version still fetched upstream")
		}
	})
}

func TestKeysetPublicationSubscribesCache(t *testing.T) {
	r := newRig(t, core.LWW)
	r.k.Run("main", func() {
		r.client.Put("sub", lattice.NewLWW(lattice.Timestamp{Clock: 1}, []byte("v")))
		r.a.Read("req", "sub", nil)
		r.k.Sleep(time.Second) // keyset interval passes
		overheads := r.kv.IndexOverheads()
		if len(overheads) == 0 {
			t.Fatal("no index entries after keyset publication")
		}
	})
}

func TestPrefetchCollapsesColdFanOut(t *testing.T) {
	r := newRig(t, core.LWW)
	r.k.Run("main", func() {
		keys := make([]string, 8)
		for i := range keys {
			keys[i] = string(rune('a'+i)) + "-pf"
			r.client.Put(keys[i], lattice.NewLWW(lattice.Timestamp{Clock: 1}, []byte("v")))
		}
		before := r.a.KVSStats()
		r.a.Prefetch(keys)
		after := r.a.KVSStats()
		if got := after.MultiGetRPCs - before.MultiGetRPCs; got < 1 || got > 2 {
			t.Fatalf("prefetch issued %d grouped RPCs on a 2-node ring", got)
		}
		if after.GetRPCs != before.GetRPCs {
			t.Fatal("prefetch used single-key gets")
		}
		// Every key is now local: the per-key reads all hit.
		for _, key := range keys {
			if !r.a.Contains(key) {
				t.Fatalf("key %s not installed", key)
			}
			if _, _, err := r.a.Read("req-pf", key, nil); err != nil {
				t.Fatal(err)
			}
		}
		if r.a.KVSStats().GetRPCs != after.GetRPCs {
			t.Fatal("reads after prefetch still missed to Anna")
		}
		if r.a.Stats.PrefetchedKeys != int64(len(keys)) {
			t.Fatalf("PrefetchedKeys = %d", r.a.Stats.PrefetchedKeys)
		}
		// A second prefetch of warm keys is free.
		st := r.a.KVSStats()
		r.a.Prefetch(keys)
		if r.a.KVSStats() != st {
			t.Fatal("warm prefetch touched Anna")
		}
	})
}

func TestPrefetchMaintainsCausalCut(t *testing.T) {
	// A prefetched capsule's dependencies must be filled exactly as a
	// per-key read-through would fill them (bolt-on causal cut).
	r := newRig(t, core.MK)
	r.k.Run("main", func() {
		dep := lattice.NewCausal(lattice.VectorClock{"w": 1}, nil, []byte("dep"))
		r.client.Put("pf-dep", dep)
		top := lattice.NewCausal(lattice.VectorClock{"w": 2},
			map[string]lattice.VectorClock{"pf-dep": {"w": 1}}, []byte("top"))
		r.client.Put("pf-top", top)
		other := lattice.NewCausal(lattice.VectorClock{"w": 3}, nil, []byte("other"))
		r.client.Put("pf-other", other)

		r.a.Prefetch([]string{"pf-top", "pf-other"})
		if !r.a.Contains("pf-top") || !r.a.Contains("pf-other") {
			t.Fatal("prefetch did not install keys")
		}
		if !r.a.Contains("pf-dep") {
			t.Fatal("prefetch installed a causal capsule without its dependency")
		}
	})
}

// TestCausalWriteAfterEvictSurvives: one thread writes k three times, the
// cache evicts k, and the thread writes it once more. The fourth write
// must reach Anna, as the value or as a sibling: a clock ticked from an
// empty store would read {writer:1}, which Anna's {writer:3} dominates.
func TestCausalWriteAfterEvictSurvives(t *testing.T) {
	for _, mode := range []core.Mode{core.SK, core.MK, core.DSC} {
		r := newRig(t, mode)
		r.k.Run("main", func() {
			for i := 1; i <= 3; i++ {
				if _, err := r.a.Write("r", "k", fmt.Appendf(nil, "v%d", i), nil, "exec-vm0-0"); err != nil {
					t.Fatal(err)
				}
			}
			r.a.FlushWrites()
			r.a.Evict("k")
			if _, err := r.a.Write("r", "k", []byte("v4"), nil, "exec-vm0-0"); err != nil {
				t.Fatal(err)
			}
			r.a.FlushWrites()
			r.k.Sleep(300 * time.Millisecond) // gossip settle
			lat, found, err := r.client.Get("k")
			if err != nil || !found {
				t.Fatalf("%v: Get(k) = %v, %v", mode, found, err)
			}
			if sib := lat.(*lattice.Causal).Siblings(); !slices.ContainsFunc(sib, func(v []byte) bool { return string(v) == "v4" }) {
				t.Errorf("%v: Anna holds %q, %v; the write after the eviction is lost", mode, sib, lat.(*lattice.Causal).VC())
			}
		})
	}
}
