package anna

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/trace"
	"cloudburst/internal/vtime"
)

// ErrUnavailable is returned when no replica of a key answered.
var ErrUnavailable = errors.New("anna: no replica available")

// ClientStats counts one client's KVS round trips, for experiments that
// measure read fan-out (each RPC issued is one network round trip).
type ClientStats struct {
	GetRPCs      int64 // single-key GetReq calls (replica walks count each hop)
	PutRPCs      int64 // PutReq calls
	MultiGetRPCs int64 // grouped MultiGetReq calls (one per owner group)
	MultiGetKeys int64 // keys carried by those grouped calls
}

// Client is a caller's handle to the KVS, bound to that caller's network
// endpoint. Routing uses the shared ring (the paper's routing tier,
// folded into the client); requests spread across a key's replicas and
// fall back through the owner list on timeout, which is what makes the
// storage tier k-fault tolerant from the caller's perspective.
type Client struct {
	kv       *KVS
	ep       *simnet.Endpoint
	timeout  time.Duration
	mgetName string       // precomputed process name for parallel group fetches
	free     []*groupCall // idle grouped-call records

	// Stats tallies this client's round trips.
	Stats ClientStats
}

// NewClient creates a client for endpoint ep. A zero timeout uses 200ms.
func (kv *KVS) NewClient(ep *simnet.Endpoint, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 200 * time.Millisecond
	}
	return &Client{kv: kv, ep: ep, timeout: timeout, mgetName: string(ep.ID()) + "/mget"}
}

// Get fetches the lattice stored at key. found is false when no replica
// has the key.
func (c *Client) Get(key string) (lat lattice.Lattice, found bool, err error) {
	owners := c.kv.ring.OwnersFor(key)
	if len(owners) == 0 {
		return nil, false, ErrUnavailable
	}
	// Spread reads across replicas; fall back to the primary (which
	// serves writes first) when a secondary hasn't converged yet, then
	// walk the rest of the owner list on timeouts. The candidate order is
	// first, 0, 1, 2, ... with revisits skipped by index — equivalent to
	// a tried-set walk, without allocating one per read.
	first := c.kv.k.Rand().Intn(len(owners))
	answered := false
	for idx := -2; idx < len(owners); idx++ {
		var i int
		switch {
		case idx == -2:
			i = first
		case idx == -1:
			if first == 0 {
				continue
			}
			i = 0
		default:
			if idx == first || idx == 0 {
				continue
			}
			i = idx
		}
		o := owners[i]
		c.Stats.GetRPCs++
		resp, err := c.ep.Call(o, GetReq{Key: key}, 24+len(key), c.timeout)
		if err != nil {
			continue // replica down; try the next owner
		}
		answered = true
		gr := resp.(GetResp)
		if gr.Found {
			return gr.Lat, true, nil
		}
		// A miss on a non-primary may be replication lag — keep going.
	}
	if !answered {
		return nil, false, ErrUnavailable
	}
	return nil, false, nil
}

// GetT is Get with the round trip recorded as an "anna/get" KVS span on
// the caller's trace context, so a cache can attribute Anna time without
// the client holding tracing state. A zero Ctx makes it exactly Get; the
// RPCs issued are byte-identical either way.
func (c *Client) GetT(ctx trace.Ctx, key string) (lattice.Lattice, bool, error) {
	if !ctx.Enabled() {
		return c.Get(key)
	}
	t0 := c.kv.k.Now()
	lat, found, err := c.Get(key)
	ctx.Record("anna/get", trace.KVS, t0, c.kv.k.Now())
	return lat, found, err
}

// Put merges lat into key. lat is immutable, so it goes as it is and the
// caller keeps it.
func (c *Client) Put(key string, lat lattice.Lattice) error {
	owners := c.kv.ring.OwnersFor(key)
	if len(owners) == 0 {
		return fmt.Errorf("anna: put %q: %w", key, ErrUnavailable)
	}
	size := 24 + len(key) + lat.ByteSize()
	// Writes go to any replica (merge is commutative); start at a random
	// owner for load spreading and walk the list on failure.
	first := c.kv.k.Rand().Intn(len(owners))
	for i := 0; i < len(owners); i++ {
		o := owners[(first+i)%len(owners)]
		c.Stats.PutRPCs++
		resp, err := c.ep.Call(o, PutReq{Key: key, Lat: lat}, size, c.timeout)
		if err != nil {
			continue
		}
		if pr, ok := resp.(PutResp); ok && pr.OK {
			return nil
		}
	}
	return fmt.Errorf("anna: put %q: %w", key, ErrUnavailable)
}

// PutIfAbsent stores lat under key unless the owner it reaches already
// holds the key: then it leaves the key as it is and returns the value
// held. An owner the first value has not reached yet by replication
// stores lat, and the two merge later as any concurrent writes do.
func (c *Client) PutIfAbsent(key string, lat lattice.Lattice) (held lattice.Lattice, err error) {
	owners := c.kv.ring.OwnersFor(key)
	if len(owners) == 0 {
		return nil, fmt.Errorf("anna: put %q: %w", key, ErrUnavailable)
	}
	size := 24 + len(key) + lat.ByteSize()
	first := c.kv.k.Rand().Intn(len(owners)) // as Put: a random owner, then the list
	for i := 0; i < len(owners); i++ {
		c.Stats.PutRPCs++
		resp, err := c.ep.Call(owners[(first+i)%len(owners)], PutIfAbsentReq{Key: key, Lat: lat}, size, c.timeout)
		if err != nil {
			continue
		}
		switch r := resp.(type) {
		case PutResp:
			if r.OK {
				return nil, nil
			}
		case PutIfAbsentResp:
			return r.Held, nil
		}
	}
	return nil, fmt.Errorf("anna: put %q: %w", key, ErrUnavailable)
}

// PutAny merges lat into key on every owner and reports how many
// acked; it succeeds when at least one did. Put stops at the first
// ack and lets gossip heal the rest — PutAny is for records whose
// *presence on any replica* carries meaning (the transaction commit
// log: the recovery sweep treats "found anywhere" as committed, so the
// writer maximizes the record's replica footprint up front).
func (c *Client) PutAny(key string, lat lattice.Lattice) (int, error) {
	owners := c.kv.ring.OwnersFor(key)
	size := 24 + len(key) + lat.ByteSize()
	acks := 0
	for _, o := range owners {
		c.Stats.PutRPCs++
		resp, err := c.ep.Call(o, PutReq{Key: key, Lat: lat}, size, c.timeout)
		if err != nil {
			continue
		}
		if pr, ok := resp.(PutResp); ok && pr.OK {
			acks++
		}
	}
	if acks == 0 {
		return 0, fmt.Errorf("anna: put-any %q: %w", key, ErrUnavailable)
	}
	return acks, nil
}

// MultiGet fetches many keys with one round trip per storage node,
// grouping keys by their primary owner exactly as PublishKeyset
// partitions keyset deltas. found is the caller's, aligned with keys and
// written only before MultiGet returns: found[i] is set to keys[i]'s
// lattice, left alone when it was not found (a duplicated key gets its
// own entry at each position); with no found, only missing is learnt.
// Keys whose primary answered not-found are returned in missing without
// further probing — a key can still live on a secondary during
// replication lag, so callers that need single-Get semantics should retry
// missing keys through Get's replica walk. When an owner is unreachable,
// its whole group falls back to per-key Gets. missing lists keys group by
// group as the groups finish, each group's in request order.
func (c *Client) MultiGet(keys []string, found ...lattice.Lattice) (missing []string, err error) {
	if len(keys) == 0 {
		return nil, nil
	}
	if c.kv.ring.Size() == 0 {
		return nil, ErrUnavailable
	}
	if found == nil {
		found = make([]lattice.Lattice, len(keys))
	}
	call := c.getCall()
	call.group(c.kv.ring, keys)
	call.found = found
	call.lats = slices.Grow(call.lats, len(keys))[:len(keys)]
	// One grouped call per owner, issued concurrently so total latency
	// is the slowest node's round trip — the same overlap the per-key
	// parallel reads had, with a fraction of the messages.
	if len(call.groups) == 1 {
		call.fetch(&call.groups[0])
	} else {
		for i := range call.groups {
			call.wg.Add(1)
			c.kv.k.GoRunner(c.mgetName, &call.groups[i])
		}
		call.wg.Wait()
	}
	missing = call.missing
	c.putCall(call)
	return missing, nil
}

// groupCall is one grouped call's working state: its keys regrouped by
// primary owner and, for MultiGet, the per-owner requests and results.
// Records cycle through the client's free list, so a warm MultiGet
// allocates nothing: found is the caller's, the rest scratch kept between
// calls: the grouping tables, the grouped keys (fresh only in
// PublishKeyset, whose one-way updates carry them past the call), each
// group's request body and lats, the reply space the owners fill.
//
// A record any of whose fetches timed out is never recycled: its owner
// may still read the keys and write into lats after the call is over.
type groupCall struct {
	c       *Client
	prim    []simnet.NodeID   // scratch: the primary owner of each input key
	pos     []int             // scratch: keys[j] is input key pos[j]
	keys    []string          // scratch: the input keys, group by group
	lats    []lattice.Lattice // scratch: keys[j]'s lattice, filled by its owner
	groups  []ownerGroup      // ascending owner order
	found   []lattice.Lattice // the caller's
	missing []string
	late    bool // a fetch timed out: an owner may still write lats
	wg      *vtime.WaitGroup
}

// ownerGroup is one primary owner's run keys[lo:hi] of a groupCall, its
// request body, and the kernel-process body (vtime.Runner) that fetches
// it.
type ownerGroup struct {
	call   *groupCall
	owner  simnet.NodeID
	lo, hi int
	req    MultiGetReq
}

func (g *ownerGroup) Run() {
	defer g.call.wg.Done()
	g.call.fetch(g)
}

// keysOf returns g's keys, capped so no receiver can append into the
// next group.
func (g *ownerGroup) keysOf() []string { return g.call.keys[g.lo:g.hi:g.hi] }

// maxScratchKeys bounds the per-key scratch a pooled record keeps
// between calls. A function's reference list or a registry read fits; a
// larger call (a VM's 1,000-key warm-up prefetch, a big keyset delta)
// pays for fresh scratch rather than pin it for the client's lifetime.
const maxScratchKeys = 64

// getCall takes a record off the free list, or makes one.
func (c *Client) getCall() *groupCall {
	if n := len(c.free); n > 0 {
		g := c.free[n-1]
		c.free = c.free[:n-1]
		return g
	}
	return &groupCall{c: c, wg: vtime.NewWaitGroup(c.kv.k)}
}

// putCall returns a record to the free list once every fetch of its call
// has finished, dropping what belongs to the caller and oversized scratch,
// unless a fetch timed out (see groupCall).
func (c *Client) putCall(g *groupCall) {
	if g.late {
		return
	}
	clear(g.keys)
	clear(g.lats)
	clear(g.groups) // the requests share keys and lats
	g.keys, g.lats, g.found, g.missing = g.keys[:0], g.lats[:0], nil, nil
	if cap(g.prim) > maxScratchKeys {
		g.prim, g.pos, g.keys, g.lats = nil, nil, nil, nil
	}
	c.free = append(c.free, g)
}

// group partitions keys by primary owner without a map: one pass records
// each key's primary and collects the distinct owners in ascending order,
// a second fills the record's key buffer group by group, keys in input
// order within a group (duplicates included).
func (g *groupCall) group(r *Ring, keys []string) {
	g.prim, g.pos, g.groups = g.prim[:0], g.pos[:0], g.groups[:0]
	for _, key := range keys {
		o := r.PrimaryFor(key)
		g.prim = append(g.prim, o)
		i := 0
		for i < len(g.groups) && g.groups[i].owner < o {
			i++
		}
		if i == len(g.groups) || g.groups[i].owner != o {
			g.groups = slices.Insert(g.groups, i, ownerGroup{call: g, owner: o})
		}
		g.groups[i].hi++ // a count until the offsets below
	}
	lo := 0
	for i := range g.groups {
		n := g.groups[i].hi
		g.groups[i].lo, g.groups[i].hi = lo, lo // hi is now the fill cursor
		lo += n
	}
	g.keys = slices.Grow(g.keys[:0], len(keys))[:len(keys)]
	g.pos = slices.Grow(g.pos, len(keys))[:len(keys)]
	for i, o := range g.prim {
		grp := &g.groups[0]
		for j := 1; grp.owner != o; j++ {
			grp = &g.groups[j]
		}
		g.keys[grp.hi], g.pos[grp.hi] = keys[i], i
		grp.hi++
	}
}

// fetch reads one owner group with a single MultiGetReq into the call's
// positional results, or walks each key's replicas when the owner is down.
func (g *groupCall) fetch(grp *ownerGroup) {
	c := g.c
	keys := grp.keysOf()
	size := 24
	for _, k := range keys {
		size += 4 + len(k)
	}
	c.Stats.MultiGetRPCs++
	c.Stats.MultiGetKeys += int64(len(keys))
	grp.req = MultiGetReq{Keys: keys, Lats: g.lats[grp.lo:grp.hi:grp.hi]}
	if _, err := c.ep.Call(grp.owner, &grp.req, size, c.timeout); err != nil {
		g.late = true
		// Primary down: the per-key path walks the replica list.
		for j, k := range keys {
			lat, ok, gerr := c.Get(k)
			if gerr != nil || !ok {
				g.missing = append(g.missing, k)
				continue
			}
			g.found[g.pos[grp.lo+j]] = lat
		}
		return
	}
	for j, lat := range grp.req.Lats {
		if lat != nil {
			g.found[g.pos[grp.lo+j]] = lat
		} else {
			g.missing = append(g.missing, keys[j])
		}
	}
}

// Delete removes key from all owners (operational delete; see DeleteReq).
func (c *Client) Delete(key string) error {
	owners := c.kv.ring.OwnersFor(key)
	var lastErr error = ErrUnavailable
	okAny := false
	for _, o := range owners {
		resp, err := c.ep.Call(o, DeleteReq{Key: key}, 24+len(key), c.timeout)
		if err != nil {
			lastErr = err
			continue
		}
		if _, ok := resp.(DeleteResp); ok {
			okAny = true
		}
	}
	if okAny {
		return nil
	}
	return fmt.Errorf("anna: delete %q: %w", key, lastErr)
}

// RemoveFromSet removes elems from the Set lattice stored at key on
// every owner — the operational counterpart of Delete for registry sets
// (grow-only sets have no mergeable deletion; replicas do not
// re-gossip, so the fanned removal sticks). The generation reaper uses
// it to scrub a dead VM generation's keys from the metric registries.
func (c *Client) RemoveFromSet(key string, elems []string) error {
	if len(elems) == 0 {
		return nil
	}
	owners := c.kv.ring.OwnersFor(key)
	size := 24 + len(key)
	for _, e := range elems {
		size += 4 + len(e)
	}
	var lastErr error = ErrUnavailable
	okAny := false
	for _, o := range owners {
		resp, err := c.ep.Call(o, SetRemoveReq{Key: key, Elems: elems}, size, c.timeout)
		if err != nil {
			lastErr = err
			continue
		}
		if _, ok := resp.(SetRemoveResp); ok {
			okAny = true
		}
	}
	if okAny {
		return nil
	}
	return fmt.Errorf("anna: set-remove %q: %w", key, lastErr)
}

// PublishKeyset sends a cache's keyset delta, partitioned to each key's
// primary owner (the index is partitioned with the key space, §4.2).
// Fire-and-forget.
func (c *Client) PublishKeyset(cache simnet.NodeID, added, removed []string) {
	add, rm := c.getCall(), c.getCall()
	scratchA, scratchR := add.keys, rm.keys // fresh keys: the updates keep them
	add.keys, rm.keys = nil, nil
	add.group(c.kv.ring, added)
	rm.group(c.kv.ring, removed)
	// Merge the two ascending group tables: one update per owner, sent in
	// ascending owner order.
	ga, gr := add.groups, rm.groups
	for len(ga) > 0 || len(gr) > 0 {
		var o simnet.NodeID
		if len(gr) == 0 || len(ga) > 0 && ga[0].owner < gr[0].owner {
			o = ga[0].owner
		} else {
			o = gr[0].owner
		}
		var a, r []string
		if len(ga) > 0 && ga[0].owner == o {
			a, ga = ga[0].keysOf(), ga[1:]
		}
		if len(gr) > 0 && gr[0].owner == o {
			r, gr = gr[0].keysOf(), gr[1:]
		}
		size := 16
		for _, s := range a {
			size += len(s)
		}
		for _, s := range r {
			size += len(s)
		}
		c.ep.Send(o, KeysetUpdate{Cache: cache, Added: a, Removed: r}, size)
	}
	add.keys, rm.keys = scratchA, scratchR
	c.putCall(add)
	c.putCall(rm)
}
