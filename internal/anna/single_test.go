package anna

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// listed returns the values on a free list, newest first, and leaves the
// list as it was.
func listed[T any](l *vtime.FreeList[T]) []T {
	var out []T
	for v, ok := l.Get(); ok; v, ok = l.Get() {
		out = append(out, v)
	}
	for _, v := range slices.Backward(out) {
		l.Put(v)
	}
	return out
}

// TestSingleKeyLateReplyIsNeverRead delays every message from the client
// to one owner past the client's timeout, so that owner reads a Get's and
// a Put's bodies long after the calls have given up, fills the Get's reply
// space and applies the Put. Neither timed-out body may go back on its
// free list: the later calls in flight when the late owner gets to them,
// which would otherwise share them, must see only their own owners'
// answers. The late owner holds every key they read under a value of its
// own, and their absent keys are ghosts: missing on their owner, which
// leaves the reply space alone, but stored on the late owner, which would
// fill it; and a late owner reading a reused Put body would store a later
// call's value under a later call's key. At the end the late owner must
// have answered the timed-out calls' own keys.
func TestSingleKeyLateReplyIsNeverRead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4 // one owner per key: a timed-out call has nowhere else to go
	k, net, kv, cl := harness(t, cfg)
	nodes := kv.Ring().nodes
	slow, b := nodes[0], nodes[1]
	keyOn := func(prefix string, o simnet.NodeID, n int) []string {
		var out []string
		for i := 0; len(out) < n; i++ {
			if key := fmt.Sprintf("%s-%d", prefix, i); kv.Ring().PrimaryFor(key) == o {
				out = append(out, key)
			}
		}
		return out
	}
	value := func(s string) *lattice.LWW { return lattice.NewLWW(lattice.Timestamp{Clock: 1}, []byte(s)) }
	lateKey, latePut := keyOn("late", slow, 1)[0], keyOn("late-put", slow, 1)[0]
	kv.Preload(lateKey, value(lateKey+"!"))
	// The late owner holds every key the later calls read, under a value
	// of its own, so a reused body it fills is seen whatever it names.
	stored := keyOn("k", b, 4)
	for _, key := range stored {
		kv.Preload(key, value(key+"!"))
		kv.byID[slow].st.merge(key, value("late"), 0)
	}
	ghosts := keyOn("ghost", b, 4)
	for _, key := range ghosts {
		kv.byID[slow].st.merge(key, value("late"), 0)
	}
	const late = 3 * time.Second
	k.Run("main", func() {
		// Warm one body of each kind.
		if _, found, err := cl.Get(stored[0]); err != nil || !found {
			t.Fatalf("warm Get: found %v, %v", found, err)
		}
		if err := cl.Put(stored[0], value(stored[0]+"!")); err != nil {
			t.Fatal(err)
		}
		gets, puts := listed(&cl.gets), listed(&cl.puts)
		if len(gets) != 1 || len(puts) != 1 {
			t.Fatalf("%d Get and %d Put bodies pooled after one call each, want 1 and 1", len(gets), len(puts))
		}
		getBody, putBody := gets[0], puts[0]
		net.SetLinkPolicy(cl.ep.ID(), slow, simnet.LinkPolicy{ExtraLatency: late})
		t0 := k.Now()
		if _, _, err := cl.Get(lateKey); err != ErrUnavailable {
			t.Fatalf("Get through the late owner: %v, want ErrUnavailable", err)
		}
		if err := cl.Put(latePut, value("late put")); err == nil {
			t.Fatal("Put through the late owner succeeded")
		}
		if slices.Contains(listed(&cl.gets), getBody) || slices.Contains(listed(&cl.puts), putBody) {
			t.Fatal("a timed-out call's body is back on its free list")
		}
		// Call back to back from just before the late requests land at
		// their owner (the Put a timeout after the Get) until well after.
		k.Sleep(time.Duration(t0 + vtime.Time(late) - 20*vtime.Time(time.Millisecond) - k.Now()))
		calls := 0
		for k.Now() < t0+vtime.Time(late+2*cl.timeout+100*time.Millisecond) {
			key := stored[calls%len(stored)]
			if lat, found, err := cl.Get(key); err != nil || !found || string(lat.(*lattice.LWW).Value) != key+"!" {
				t.Fatalf("Get(%s) = %v, %v, %v", key, lat, found, err)
			}
			ghost := ghosts[calls%len(ghosts)]
			if lat, found, err := cl.Get(ghost); err != nil || found || lat != nil {
				t.Fatalf("Get(%s) of an absent key = %v, %v, %v", ghost, lat, found, err)
			}
			if err := cl.Put(ghost+"-put", value("on time")); err != nil {
				t.Fatal(err)
			}
			calls++
		}
		if calls < 50 {
			t.Fatalf("only %d rounds overlapped the late owner", calls)
		}
		// The late owner read the timed-out calls' own bodies.
		if getBody.Key != lateKey || !getBody.Found || string(getBody.Lat.(*lattice.LWW).Value) != lateKey+"!" {
			t.Fatalf("the late owner's Get body = %+v, want %s answered", *getBody, lateKey)
		}
		if putBody.Key != latePut {
			t.Fatalf("the late owner's Put body names %q, want %q", putBody.Key, latePut)
		}
		if e, _ := kv.byID[slow].st.get(latePut, k.Now()); e == nil || string(e.lat.(*lattice.LWW).Value) != "late put" {
			t.Fatalf("the late owner did not apply the timed-out Put")
		}
		for _, ghost := range ghosts {
			if e, _ := kv.byID[slow].st.get(ghost+"-put", k.Now()); e != nil {
				t.Fatalf("the late owner stored a later Put's %s", ghost+"-put")
			}
		}
	})
}

// TestSingleKeyCallsAllocationFree pins a warm single-key Get and Put of a
// held key at zero allocations: each body comes off the client's free
// list and carries its reply space, the owner answers with an empty
// Filled, and merging an LWW value into a key the store holds allocates
// nothing.
func TestSingleKeyCallsAllocationFree(t *testing.T) {
	k, _, kv, cl := harness(t, DefaultConfig())
	keys := []string{"a", "b", "c", "d"}
	vals := make([]*lattice.LWW, len(keys))
	for i, key := range keys {
		vals[i] = lattice.NewLWW(lattice.Timestamp{Clock: 1}, make([]byte, 64))
		kv.Preload(key, vals[i])
	}
	for _, tc := range []struct {
		name string
		call func(i int)
	}{
		{"Get", func(i int) {
			if lat, found, err := cl.Get(keys[i%len(keys)]); err != nil || !found || lat != vals[i%len(keys)] {
				t.Fatalf("Get = %v, %v, %v", lat, found, err)
			}
		}},
		{"Put", func(i int) {
			if err := cl.Put(keys[i%len(keys)], vals[i%len(keys)]); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		calls := 0
		run := func() {
			k.Run(tc.name, func() {
				for i := 0; i < calls; i++ {
					tc.call(i)
				}
			})
		}
		calls = 50
		run() // warm the bodies, the kernel's processes and the pools
		// The difference between 100 and 50 calls per Run is 50 calls'
		// cost, without what one Run and the nodes' idle ticks cost.
		base := testing.AllocsPerRun(5, run)
		calls = 100
		got := (testing.AllocsPerRun(5, run) - base) / 50
		t.Logf("warm %s: %.2f allocations", tc.name, got)
		if math.Round(got) != 0 {
			t.Errorf("warm %s: %.2f allocations, want 0", tc.name, got)
		}
	}
}

// TestPushTickAllocatesOncePerVersion pins the update push at one
// allocation per pushed version, the message every subscriber of the key
// shares, whether one cache or five hold the key; so does the gossip of a
// version to its other owners.
func TestPushTickAllocatesOncePerVersion(t *testing.T) {
	for _, subs := range []int{1, 5} {
		k := vtime.NewKernel(1)
		net := simnet.New(k, simnet.Link{Latency: simnet.Constant(200 * time.Microsecond)})
		peers := []simnet.NodeID{"p1", "p2"}
		n := NewNode(k, net.AddNode("n0"), NewRing(3, 8, append([]simnet.NodeID{"n0"}, peers...)), DefaultNodeConfig())
		var pushed *KeyUpdatePush
		var gossiped *GossipMsg
		sink := func(id simnet.NodeID) {
			ep := net.AddNode(id)
			k.Go("sink", func() {
				for {
					switch b := ep.Recv().Payload.(type) {
					case *KeyUpdatePush:
						pushed = b
					case *GossipMsg:
						gossiped = b
					}
				}
			})
		}
		keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
		for i := 0; i < subs; i++ {
			id := simnet.NodeID(fmt.Sprintf("cache-%d", i))
			sink(id)
			for _, key := range keys {
				n.subscribe(key, id)
			}
		}
		for _, p := range peers {
			sink(p)
		}
		val := lattice.NewLWW(lattice.Timestamp{Clock: 1}, make([]byte, 32))
		for _, kind := range []dirtyKind{forPush, forRepl} {
			tick := n.pushTick
			if kind == forRepl {
				tick = n.gossipTick
			}
			rounds := 0
			run := func() {
				k.Run("ticks", func() {
					for r := 0; r < rounds; r++ {
						for _, key := range keys {
							e, _ := n.st.merge(key, val, k.Now())
							n.st.markDirty(e, kind)
						}
						tick()
						k.Sleep(time.Millisecond)
					}
				})
			}
			rounds = 20
			run()
			base := testing.AllocsPerRun(5, run)
			rounds = 40
			per := (testing.AllocsPerRun(5, run) - base) / 20 / float64(len(keys))
			t.Logf("%d subscribers, kind %d: %.2f allocations per version", subs, kind, per)
			if math.Round(per*10)/10 != 1 {
				t.Errorf("%d subscribers, kind %d: %.2f allocations per version, want 1", subs, kind, per)
			}
		}
		if pushed == nil || gossiped == nil {
			t.Fatal("the sinks received nothing")
		}
		k.Stop()
	}
}
