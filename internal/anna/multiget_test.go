package anna

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// oracleGroup is one owner's keys under the map-plus-sort grouping that
// MultiGet and PublishKeyset used before groupCall: a map from primary
// owner to the keys it owns, appended in input order, and the owners
// sorted ascending. It survives only here, as the oracle.
type oracleGroup struct {
	owner simnet.NodeID
	keys  []string
}

func oracleGroups(r *Ring, keys []string) []oracleGroup {
	byOwner := make(map[simnet.NodeID][]string)
	for _, key := range keys {
		o := r.PrimaryFor(key)
		byOwner[o] = append(byOwner[o], key)
	}
	owners := make([]simnet.NodeID, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	out := make([]oracleGroup, len(owners))
	for i, o := range owners {
		out[i] = oracleGroup{o, byOwner[o]}
	}
	return out
}

// oracleMultiGet is MultiGet as it was built on oracleGroups: a found
// map, one closure per owner group and a fresh WaitGroup per call, with a
// fresh request and reply space per group. Same sends, spawns and process
// names, so a kernel running it draws the same random numbers as one
// running MultiGet.
func oracleMultiGet(c *Client, keys []string) (found map[string]lattice.Lattice, missing []string) {
	groups := oracleGroups(c.kv.ring, keys)
	found = make(map[string]lattice.Lattice, len(keys))
	fetchGroup := func(g oracleGroup) {
		size := 24
		for _, k := range g.keys {
			size += 4 + len(k)
		}
		c.Stats.MultiGetRPCs++
		c.Stats.MultiGetKeys += int64(len(g.keys))
		req := &MultiGetReq{Keys: g.keys, Lats: make([]lattice.Lattice, len(g.keys))}
		if _, err := c.ep.Call(g.owner, req, size, c.timeout); err != nil {
			for _, k := range g.keys {
				lat, ok, gerr := c.Get(k)
				if gerr != nil || !ok {
					missing = append(missing, k)
					continue
				}
				found[k] = lat
			}
			return
		}
		for j, lat := range req.Lats {
			if lat != nil {
				found[g.keys[j]] = lat
			} else {
				missing = append(missing, g.keys[j])
			}
		}
	}
	if len(groups) == 1 {
		fetchGroup(groups[0])
		return found, missing
	}
	wg := vtime.NewWaitGroup(c.kv.k)
	for _, g := range groups {
		wg.Add(1)
		c.kv.k.Go(c.mgetName, func() {
			defer wg.Done()
			fetchGroup(g)
		})
	}
	wg.Wait()
	return found, missing
}

// TestGroupingMatchesMapOracle holds groupCall.group to oracleGroups over
// random key lists with duplicates on rings of 1-8 nodes: the same
// groups in the same owner order, each group's keys in input order, and
// a position map that points every grouped key back at its input slot.
func TestGroupingMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for nodes := 1; nodes <= 8; nodes++ {
		r := NewRing(1, 16, nodeIDs("anna-", nodes))
		c := &Client{kv: &KVS{ring: r}}
		for trial := 0; trial < 50; trial++ {
			keys := randomKeyList(rng, 40)
			g := c.getCall()
			g.group(r, keys)
			want := oracleGroups(r, keys)
			if len(g.groups) != len(want) {
				t.Fatalf("%d nodes, keys %v: %d groups, oracle %d", nodes, keys, len(g.groups), len(want))
			}
			for i, grp := range g.groups {
				if grp.owner != want[i].owner || !slices.Equal(grp.keysOf(), want[i].keys) {
					t.Fatalf("%d nodes, keys %v: group %d = %s %v, oracle %s %v",
						nodes, keys, i, grp.owner, grp.keysOf(), want[i].owner, want[i].keys)
				}
			}
			if len(g.keys) != len(keys) {
				t.Fatalf("grouped %d of %d keys", len(g.keys), len(keys))
			}
			for j, key := range g.keys {
				if keys[g.pos[j]] != key {
					t.Fatalf("grouped key %d = %q, but pos points at input %d = %q", j, key, g.pos[j], keys[g.pos[j]])
				}
			}
			c.putCall(g)
		}
	}
}

// randomKeyList draws 1..max keys from a small universe of stored
// ("k-N") and absent ("absent-N") names, so duplicates are common.
func randomKeyList(rng *rand.Rand, max int) []string {
	keys := make([]string, 1+rng.Intn(max))
	for i := range keys {
		if rng.Intn(4) == 0 {
			keys[i] = fmt.Sprintf("absent-%d", rng.Intn(6))
		} else {
			keys[i] = fmt.Sprintf("k-%d", rng.Intn(24))
		}
	}
	return keys
}

// mgetObservation is everything one multi-get call exposes: the value at
// each position ("" for nil), missing in order, the client's counters and
// the virtual time the call returned at.
type mgetObservation struct {
	found   []string
	missing []string
	stats   ClientStats
	now     vtime.Time
}

// runMultiGets preloads k-0..k-23 on a fresh cluster of the given shape,
// optionally takes the primary of key down first, issues the lists one
// after another through MultiGet or the oracle, and reports each call and
// the kernel's next random draw.
func runMultiGets(t *testing.T, seed int64, nodes, replication int, down string, lists [][]string, oracle bool) ([]mgetObservation, int64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes, cfg.Replication = nodes, replication
	k := vtime.NewKernel(seed)
	defer k.Stop()
	net := simnet.New(k, simnet.Link{Latency: simnet.LogNormal{Med: 200 * time.Microsecond, Sigma: 0.5}})
	kv := NewKVS(k, net, cfg)
	cl := kv.NewClient(net.AddNode("test-client"), 0)
	for i := 0; i < 24; i++ {
		key := fmt.Sprintf("k-%d", i)
		kv.Preload(key, lattice.NewLWW(lattice.Timestamp{Clock: 1}, []byte(key+"!")))
	}
	if down != "" {
		net.SetDown(kv.Ring().PrimaryFor(down), true)
	}
	var obs []mgetObservation
	k.Run("main", func() {
		for _, keys := range lists {
			var o mgetObservation
			var lats []lattice.Lattice
			if oracle {
				m, missing := oracleMultiGet(cl, keys)
				for _, key := range keys {
					lats = append(lats, m[key])
				}
				o.missing = missing
			} else {
				lats = make([]lattice.Lattice, len(keys))
				missing, err := cl.MultiGet(keys, lats...)
				if err != nil {
					t.Fatal(err)
				}
				o.missing = missing
			}
			if len(lats) != len(keys) {
				t.Fatalf("found has %d entries for %d keys", len(lats), len(keys))
			}
			for _, lat := range lats {
				v := ""
				if lat != nil {
					v = string(lat.(*lattice.LWW).Value)
				}
				o.found = append(o.found, v)
			}
			o.stats, o.now = cl.Stats, k.Now()
			obs = append(obs, o)
		}
	})
	return obs, k.Rand().Int63()
}

// TestMultiGetMatchesMapOracle runs the same seeded call sequences through
// MultiGet and the map-based oracle on identical clusters of 1-8 storage
// nodes: every position's value, missing in order, the RPC and key
// counters, the virtual time of each return and the kernel's next random
// draw must agree. Results must also be aligned: a stored key's slot
// holds its own value, an absent key's slot is nil.
func TestMultiGetMatchesMapOracle(t *testing.T) {
	for nodes := 1; nodes <= 8; nodes++ {
		seed := int64(100 + nodes)
		rng := rand.New(rand.NewSource(seed))
		lists := make([][]string, 12)
		for i := range lists {
			lists[i] = randomKeyList(rng, 30)
		}
		got, gotDraw := runMultiGets(t, seed, nodes, 1, "", lists, false)
		want, wantDraw := runMultiGets(t, seed, nodes, 1, "", lists, true)
		if !reflect.DeepEqual(got, want) || gotDraw != wantDraw {
			t.Fatalf("%d nodes: MultiGet diverged from the oracle\n got %+v (next draw %d)\nwant %+v (next draw %d)",
				nodes, got, gotDraw, want, wantDraw)
		}
		for i, keys := range lists {
			for j, key := range keys {
				stored := key[0] == 'k'
				if v := got[i].found[j]; stored && v != key+"!" || !stored && v != "" {
					t.Fatalf("%d nodes, call %d: slot %d (%s) = %q", nodes, i, j, key, v)
				}
			}
		}
	}
}

// TestMultiGetFallbackKeepsPositions takes one primary down among several
// owner groups: its group's keys come back through the per-key replica
// walk into their own slots, and missing keeps the oracle's order — the
// live groups' absent keys as their replies land, then the down group's
// in input order, last because its call has to time out first.
func TestMultiGetFallbackKeepsPositions(t *testing.T) {
	keys := []string{"k-3", "absent-1", "k-7", "k-11", "absent-2", "k-3", "k-19", "absent-4", "k-0", "k-15", "absent-5"}
	lists := [][]string{keys}
	for _, down := range []string{"k-3", "k-7", "k-19"} {
		got, gotDraw := runMultiGets(t, 5, 4, 2, down, lists, false)
		want, wantDraw := runMultiGets(t, 5, 4, 2, down, lists, true)
		if !reflect.DeepEqual(got, want) || gotDraw != wantDraw {
			t.Fatalf("down %s: MultiGet diverged from the oracle\n got %+v\nwant %+v", down, got, want)
		}
		o := got[0]
		if o.stats.MultiGetRPCs < 2 || o.stats.GetRPCs == 0 {
			t.Fatalf("down %s: %d grouped calls, %d per-key gets; want several groups and a fallback", down, o.stats.MultiGetRPCs, o.stats.GetRPCs)
		}
		var absent []string
		for j, key := range keys {
			if stored := key[0] == 'k'; stored && o.found[j] != key+"!" || !stored && o.found[j] != "" {
				t.Fatalf("down %s: slot %d (%s) = %q", down, j, key, o.found[j])
			}
			if key[0] == 'a' {
				absent = append(absent, key)
			}
		}
		if !slices.Equal(slices.Sorted(slices.Values(o.missing)), slices.Sorted(slices.Values(absent))) {
			t.Fatalf("down %s: missing = %v, want the absent keys %v", down, o.missing, absent)
		}
		// The down group's absent keys close the list, in input order.
		r := NewRing(2, vnodesPerNode, nodeIDs("anna-", 4))
		var downAbsent []string
		for _, key := range absent {
			if r.PrimaryFor(key) == r.PrimaryFor(down) {
				downAbsent = append(downAbsent, key)
			}
		}
		if tail := o.missing[len(o.missing)-len(downAbsent):]; !slices.Equal(tail, downAbsent) {
			t.Fatalf("down %s: missing = %v, want it to end with %v", down, o.missing, downAbsent)
		}
	}
}

// TestPublishKeysetMatchesMapOracle: one KeysetUpdate per owner, in
// ascending owner order, each carrying that owner's added and removed
// keys in input order (nil when it has none) — what the map-plus-sort
// partition sent.
func TestPublishKeysetMatchesMapOracle(t *testing.T) {
	type update struct {
		to  simnet.NodeID
		msg KeysetUpdate
	}
	rng := rand.New(rand.NewSource(11))
	for nodes := 1; nodes <= 8; nodes++ {
		k := vtime.NewKernel(1)
		net := simnet.New(k, simnet.Link{Latency: simnet.Constant(100 * time.Microsecond)})
		r := NewRing(1, 16, nodeIDs("anna-", nodes))
		var log []update
		for _, id := range r.nodes {
			ep := net.AddNode(id)
			k.Go(string(id), func() {
				for {
					m := ep.Recv()
					log = append(log, update{id, m.Payload.(KeysetUpdate)})
				}
			})
		}
		c := (&KVS{k: k, ring: r}).NewClient(net.AddNode("cache-0"), 0)
		for trial := 0; trial < 20; trial++ {
			added, removed := randomKeyList(rng, 20), randomKeyList(rng, 20)
			switch trial % 5 {
			case 0:
				added = nil
			case 1:
				removed = nil
			}
			var want []update
			add, rm := oracleGroups(r, added), oracleGroups(r, removed)
			for len(add) > 0 || len(rm) > 0 {
				var u update
				if len(rm) == 0 || len(add) > 0 && add[0].owner <= rm[0].owner {
					u.to = add[0].owner
				} else {
					u.to = rm[0].owner
				}
				u.msg.Cache = "cache-0"
				if len(add) > 0 && add[0].owner == u.to {
					u.msg.Added, add = add[0].keys, add[1:]
				}
				if len(rm) > 0 && rm[0].owner == u.to {
					u.msg.Removed, rm = rm[0].keys, rm[1:]
				}
				want = append(want, u)
			}
			log = log[:0]
			k.Run("publish", func() {
				c.PublishKeyset("cache-0", added, removed)
				k.Sleep(time.Millisecond)
			})
			if !reflect.DeepEqual(log, want) {
				t.Fatalf("%d nodes: added %v removed %v\n sent %+v\n want %+v", nodes, added, removed, log, want)
			}
		}
		k.Stop()
	}
}

// TestMultiGetAllocations pins the grouped read's cost on a warm client
// whose caller owns found: 10 LWW keys allocate nothing, whether they
// have 1 owner group or 4. The grouped keys, the request bodies and the
// owners' reply space are the pooled record's, a slot shares the stored
// capsule, and there is no map, closure, WaitGroup or sort.
func TestMultiGetAllocations(t *testing.T) {
	for _, groups := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Nodes = 6
		k, _, kv, cl := harness(t, cfg)
		var keys []string
		owners := map[simnet.NodeID]bool{}
		for i := 0; len(keys) < 10; i++ {
			key := fmt.Sprintf("alloc-%d", i)
			o := kv.Ring().PrimaryFor(key)
			if !owners[o] && len(owners) == groups {
				continue
			}
			owners[o] = true
			keys = append(keys, key)
			kv.Preload(key, lattice.NewLWW(lattice.Timestamp{Clock: 1}, make([]byte, 64)))
		}
		calls := 0
		found := make([]lattice.Lattice, len(keys))
		body := func() {
			for i := 0; i < calls; i++ {
				clear(found)
				missing, err := cl.MultiGet(keys, found...)
				if err != nil || len(missing) != 0 || found[9] == nil {
					t.Fatalf("MultiGet = found[9] %v, missing %v, %v", found[9], missing, err)
				}
			}
		}
		run := func() { k.Run("mget", body) }
		calls = 50
		run() // warm the client's records, the kernel's processes and the pools
		before := cl.Stats.MultiGetRPCs
		// The difference between 100 and 50 calls per Run is 50 calls' cost,
		// without what one Run and the nodes' idle ticks cost.
		base := testing.AllocsPerRun(5, run)
		calls = 100
		got := (testing.AllocsPerRun(5, run) - base) / 50
		if rpcs := (cl.Stats.MultiGetRPCs - before) / (6*50 + 6*100); rpcs != int64(groups) {
			t.Fatalf("%d grouped calls per MultiGet, want %d", rpcs, groups)
		}
		// Rounded: the kernel's and network's shared tables still grow now
		// and then (a few hundredths of an allocation per call), a cost of
		// the pools, not of MultiGet.
		if math.Round(got) != 0 {
			t.Fatalf("MultiGet of 10 keys in %d groups: %.2f allocations, want 0", groups, got)
		}
	}
}

// TestMultiGetLateReplyIsNeverRead delays every message from the client
// to one owner past the client's timeout, so that owner reads a grouped
// read's request and fills its reply space long after the caller has
// fallen back to per-key Gets and returned. The timed-out record must
// stay off the free list. The later calls in flight when the late owner
// gets to it, which would otherwise share the record's request bodies
// and reply space, must see only their own owners' answers in every
// slot. Their absent keys are ghosts: missing on their primary, whose
// slots it leaves alone, but stored on the late owner, which would fill
// them. The timed-out call grouped its keys in the key buffer the
// record kept from the warm call; when the late owner gets to it, that
// buffer must still hold the call's own keys, which it answers in the
// record's reply space.
func TestMultiGetLateReplyIsNeverRead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes, cfg.Replication = 4, 2
	k, net, kv, cl := harness(t, cfg)
	nodes := kv.Ring().nodes
	slow, b, c := nodes[0], nodes[1], nodes[2]
	// keysOn returns n keys with the given prefix whose primary is o.
	keysOn := func(prefix string, o simnet.NodeID, n int) []string {
		var out []string
		for i := 0; len(out) < n; i++ {
			if key := fmt.Sprintf("%s-%d", prefix, i); kv.Ring().PrimaryFor(key) == o {
				out = append(out, key)
			}
		}
		return out
	}
	stored := map[string]bool{}
	preload := func(keys []string) []string {
		for _, key := range keys {
			stored[key] = true
			kv.Preload(key, lattice.NewLWW(lattice.Timestamp{Clock: 1}, []byte(key+"!")))
		}
		return keys
	}
	ghosts := func(o simnet.NodeID) []string {
		keys := keysOn("ghost", o, 4)
		for _, key := range keys {
			kv.byID[slow].st.merge(key, lattice.NewLWW(lattice.Timestamp{Clock: 1}, []byte("late")), 0)
		}
		return keys
	}
	lateKeys := preload(keysOn("late", slow, 4))
	single := slices.Concat(ghosts(b), preload(keysOn("k", b, 4)))
	multi := slices.Concat(ghosts(b), ghosts(c), preload(keysOn("k", b, 2)), preload(keysOn("k", c, 2)))
	check := func(keys []string, found []lattice.Lattice, missing []string, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var absent []string
		for j, key := range keys {
			switch {
			case !stored[key]:
				absent = append(absent, key)
				if found[j] != nil {
					t.Fatalf("absent %s: slot %d = %q, want nil", key, j, found[j].(*lattice.LWW).Value)
				}
			case found[j] == nil:
				t.Fatalf("%s: slot %d is nil", key, j)
			case string(found[j].(*lattice.LWW).Value) != key+"!":
				t.Fatalf("%s: slot %d = %q", key, j, found[j].(*lattice.LWW).Value)
			}
		}
		if !slices.Equal(slices.Sorted(slices.Values(missing)), slices.Sorted(slices.Values(absent))) {
			t.Fatalf("missing = %v, want the absent keys %v", missing, absent)
		}
	}
	mget := func(keys []string) ([]lattice.Lattice, []string, error) {
		found := make([]lattice.Lattice, len(keys))
		missing, err := cl.MultiGet(keys, found...)
		return found, missing, err
	}
	const late = 3 * time.Second
	k.Run("main", func() {
		// Warm one record at the largest call's size, so every later call
		// reuses its tables rather than growing them.
		found, missing, err := mget(multi)
		check(multi, found, missing, err)
		if len(cl.free) != 1 {
			t.Fatalf("%d pooled records after one call, want 1", len(cl.free))
		}
		rec := cl.free[0]
		keyBuf := rec.keys[:1]
		net.SetLinkPolicy(cl.ep.ID(), slow, simnet.LinkPolicy{ExtraLatency: late})
		t0 := k.Now()
		found, missing, err = mget(lateKeys)
		check(lateKeys, found, missing, err)
		if slices.Contains(cl.free, rec) {
			t.Fatal("the timed-out call's record is back on the free list")
		}
		if &rec.keys[:1][0] != &keyBuf[0] {
			t.Fatal("the timed-out call did not group its keys in the record's kept buffer")
		}
		if k.Now()-t0 >= vtime.Time(late) {
			t.Fatalf("the timed-out call took %v, past the late owner's %v", k.Now()-t0, late)
		}
		// Call back to back from just before the late request lands at its
		// owner until well after, alternating one and two owner groups.
		k.Sleep(time.Duration(t0 + vtime.Time(late) - 20*vtime.Time(time.Millisecond) - k.Now()))
		calls := 0
		for k.Now() < t0+vtime.Time(late+100*time.Millisecond) {
			keys := single
			if calls%2 == 1 {
				keys = multi
			}
			found, missing, err := mget(keys)
			check(keys, found, missing, err)
			calls++
		}
		if calls < 50 {
			t.Fatalf("only %d calls overlapped the late owner", calls)
		}
		// The late owner read the timed-out call's own keys from the
		// buffer and answered each in its slot.
		if got := rec.groups[0].req.Keys; !slices.Equal(rec.keys, lateKeys) || !slices.Equal(got, lateKeys) {
			t.Fatalf("the late owner's request holds %v (buffer %v), want %v", got, rec.keys, lateKeys)
		}
		for j, key := range lateKeys {
			if lat := rec.lats[j]; lat == nil || string(lat.(*lattice.LWW).Value) != key+"!" {
				t.Fatalf("the late owner's answer for %s = %v", key, lat)
			}
		}
	})
}
