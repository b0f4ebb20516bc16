// Package cache implements Cloudburst's co-located mutable cache (§4.2)
// and the distributed session consistency protocols (§5.3). One cache
// runs per function-execution VM; executors reach it over IPC, and the
// cache intermediates between executors and Anna: reads fill from the
// KVS, writes are acknowledged locally and written back asynchronously,
// and Anna pushes updates for keys the cache advertises in its periodic
// keyset snapshots.
//
// The cache supports the five consistency levels of §6.2: last-writer
// wins (LWW), distributed session repeatable read (Algorithm 1),
// single-key causality, multi-key (bolt-on) causality — each cache holds
// a causal cut — and distributed session causal consistency (Algorithm
// 2), which ships read-set and dependency metadata down the DAG and
// fetches version snapshots from upstream caches when the local cut is
// too old.
package cache

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/trace"
	"cloudburst/internal/vtime"
)

// ErrSnapshotGone is returned when an upstream cache no longer holds a
// required version snapshot (e.g. it failed and restarted); the runtime
// reacts by re-executing the DAG from scratch (§5.3).
var ErrSnapshotGone = errors.New("cache: upstream version snapshot unavailable")

// The cache's calibrated latency and policy constants.
const (
	// ipc is the executor↔cache hop cost on one VM.
	ipc = 50 * time.Microsecond
	// keysetInterval is how often the cached-keyset delta is published
	// to Anna (§4.2).
	keysetInterval = 500 * time.Millisecond
	// depFetchRetries bounds how often the causal-cut maintainer
	// re-fetches a lagging dependency from Anna before giving up.
	depFetchRetries = 20
	// depFetchBackoff is the wait between those retries.
	depFetchBackoff = 5 * time.Millisecond
	// snapTableKeep is the most snapshots a finished request's table may
	// have held and still be kept for reuse. 97% of causal-rw's tables
	// end with at most 64; the rest, a post's fan-out, reach ~350.
	// Keeping tables of up to 256 cut causal-rw's (seed 1) bytes by 1.0%
	// but held 3.4% more live heap, so a larger table is dropped.
	snapTableKeep = 64
	// snapFreeMax bounds the free list of emptied snapshot tables. A
	// cache serves its VM's few threads and the DAGs that read through
	// it, so a handful of tables covers the requests in flight.
	snapFreeMax = 8
	// prefetchKeep is the most keys a reused Prefetch record may hold. A
	// reference list has at most 10 (sum10's), fig10's preload 24 (40 at
	// paper size); a whole-keyspace warm-up (the benchmark's hot-open, 1,000
	// per VM) pays for its record rather than pin it for the cache's life.
	prefetchKeep = 64
	// wbFreeMax bounds the free list of idle write-back records. A record
	// is held only while its put is in flight; causal-rw's post fan-out
	// keeps up to ~30 in flight on one cache, and a larger burst pays for
	// the records past this.
	wbFreeMax = 64
)

// Config carries what a deployment sets per cache.
type Config struct {
	// Mode is the consistency level.
	Mode core.Mode
	// Trace, when non-nil, records per-request read/write spans (and
	// the Anna round trips under them) into the cluster's collector.
	// CPU-side only — nothing on the wire; nil disables at zero cost.
	Trace *trace.Collector
	// MaxRequestAge is how long a request's version snapshots may stay at
	// the cache when no DAGDone frees them, as when the request's sink
	// died with its VM. The cluster sets it above the longest a request
	// can stay in flight; zero leaves every table to its DAGDone.
	MaxRequestAge time.Duration
}

// DefaultConfig returns a cache in the given mode; the calibrated
// latencies are the constants above.
func DefaultConfig(mode core.Mode) Config {
	return Config{Mode: mode}
}

// SnapshotFetchReq asks an upstream cache for the version snapshot of key
// under a DAG request (Algorithms 1 and 2's fetch_from_upstream).
type SnapshotFetchReq struct {
	ReqID string
	Key   string
}

// SnapshotFetchResp answers a SnapshotFetchReq.
type SnapshotFetchResp struct {
	Lat   lattice.Lattice
	Found bool
}

// Stats counts cache activity for reports and experiments.
type Stats struct {
	Hits           int64
	Misses         int64
	UpstreamFetch  int64 // version-snapshot fetches from other caches
	UpdatesPushed  int64 // updates ingested from Anna's push path
	Prefetches     int64 // grouped multi-get warm fills issued
	PrefetchedKeys int64 // keys installed by those fills
	WarmFilledKeys int64 // keys restored from a peer by WarmFill
}

// Cache is one VM's co-located cache process. Network traffic — update
// pushes from Anna, snapshot fetches from peer caches, DAG-completion
// notices — dispatches through a serial simnet.Dispatcher.
//
// The kernel runs one process at a time, so the cache takes no lock. The
// dispatcher, the keyset tick, write-backs and executor reads all run
// cache methods, and a method reads and writes the store, the snapshot
// tables and the churn sets only between blocking calls: after a blocking
// call (an Anna call, an upstream fetch, Sleep) it reads the store again,
// as ensureCutDepth does, rather than trust what it read before.
type Cache struct {
	k    *vtime.Kernel
	ep   *simnet.Endpoint
	anna *anna.Client
	cfg  Config
	vm   string
	disp *simnet.Dispatcher

	store map[string]lattice.Lattice
	// floors keeps evicted causal capsules' clocks, joined per key, for
	// the key's next write to tick from: Anna's older versions of the key
	// then cannot dominate it.
	floors map[string]lattice.Clock

	// snapshots holds per-request version snapshots: reqID → key →
	// exact capsule read (or written) by this DAG at this cache, and when
	// the request's first snapshot was taken. DAGDone empties a finished
	// request's table onto freeSnaps, at most snapFreeMax tables of at
	// most snapTableKeep keys, and the next request's first snapshot
	// takes one from there. A request whose sink died with its VM sends
	// no DAGDone; keysetTick drops its table once it is older than
	// cfg.MaxRequestAge.
	snapshots    map[string]snapTable
	freeSnaps    vtime.FreeList[map[string]lattice.Lattice]
	freePrefetch vtime.FreeList[*prefetchCall] // emptied; as many as have run at once

	// keys is the store's key set in ascending order as Keys last lent it.
	// keysChurn holds the keys whose membership changed since that call,
	// deltaChurn those since keysetTick last published the delta to Anna.
	keys                  []string
	keysChurn, deltaChurn churn

	// wbq is the asynchronous write-back queue to Anna: writes are
	// acknowledged locally and merged into the KVS in the background
	// (§4.2).
	wbq       *vtime.Chan[wbItem]
	wbPending int                    // queued or in flight; FlushWrites waits for 0
	freeWB    vtime.FreeList[*wbPut] // idle put records, at most wbFreeMax
	wbName    string                 // precomputed write-back process name
	stopped   bool                   // guards Stop idempotence

	// spans is the cluster's trace collector (nil = tracing off).
	spans *trace.Collector

	Stats Stats
}

// snapTable is one request's version snapshots at this cache.
type snapTable struct {
	keys map[string]lattice.Lattice
	born vtime.Time
}

// wbItem is one queued write-back.
type wbItem struct {
	key string
	lat lattice.Lattice
}

// New creates a cache for the given VM, bound to endpoint ep, backed by
// the Anna client ac (which must be bound to the same endpoint).
func New(k *vtime.Kernel, ep *simnet.Endpoint, ac *anna.Client, vm string, cfg Config) *Cache {
	c := &Cache{
		k:         k,
		ep:        ep,
		anna:      ac,
		cfg:       cfg,
		vm:        vm,
		store:     make(map[string]lattice.Lattice),
		floors:    make(map[string]lattice.Clock),
		snapshots: make(map[string]snapTable),
		freeSnaps: vtime.FreeList[map[string]lattice.Lattice]{Max: snapFreeMax},
		freeWB:    vtime.FreeList[*wbPut]{Max: wbFreeMax},
		wbq:       vtime.NewChan[wbItem](k, -1),
		wbName:    string(ep.ID()) + "/wb",
		spans:     cfg.Trace,
	}
	c.disp = simnet.NewDispatcher(ep, string(ep.ID()))
	simnet.OnMessage(c.disp, c.handlePush)
	simnet.OnMessage(c.disp, c.handleDAGDone)
	simnet.OnRequest(c.disp, c.handleSnapshotFetch)
	return c
}

// writeBack enqueues an asynchronous KVS merge of lat (which the queue
// takes ownership of).
func (c *Cache) writeBack(key string, lat lattice.Lattice) {
	c.wbPending++
	c.wbq.Send(wbItem{key: key, lat: lat})
}

// writeBackLoop drains the write-back queue into Anna. Each put runs in
// its own process: write-backs are unordered across keys, exactly like
// the paper's cache (which is what lets a timeline update become visible
// before the tweet it references — the LWW anomaly of §6.3.2 that the
// causal modes repair).
func (c *Cache) writeBackLoop() {
	for {
		item, ok := c.wbq.Recv()
		if !ok {
			return
		}
		p, ok := c.freeWB.Get()
		if !ok {
			p = &wbPut{c: c}
		}
		p.item = item
		c.k.GoRunner(c.wbName, p)
	}
}

// wbPut is one write-back put in flight, run as a closure-free
// vtime.Runner. It clears its item and returns itself to the cache's
// free list once the put is done.
type wbPut struct {
	c    *Cache
	item wbItem
}

// Run implements vtime.Runner. Errors are dropped: an unreachable
// replica set converges via a later write or gossip; the local cache
// remains the freshest copy meanwhile.
func (p *wbPut) Run() {
	_ = p.c.anna.Put(p.item.key, p.item.lat)
	p.item = wbItem{}
	p.c.wbPending--
	p.c.freeWB.Put(p)
}

// FlushWrites blocks until every write-back queued so far has completed
// its put (test hook and graceful-drain aid). It counts from the enqueue:
// a write handed straight to the parked drainer is in neither the queue
// nor a put until the drainer runs.
func (c *Cache) FlushWrites() {
	for c.wbPending > 0 {
		c.k.Sleep(time.Millisecond)
	}
}

// ID returns the cache's network id.
func (c *Cache) ID() simnet.NodeID { return c.ep.ID() }

// IPC returns the executor↔cache hop cost.
func (c *Cache) IPC() time.Duration { return ipc }

// Mode returns the configured consistency level.
func (c *Cache) Mode() core.Mode { return c.cfg.Mode }

// Start launches the cache's dispatcher, keyset publisher, and
// write-back drainer.
func (c *Cache) Start() {
	c.disp.Start()
	c.disp.Every("keyset", keysetInterval, c.keysetTick)
	c.disp.Go("writeback", c.writeBackLoop)
}

// Stop shuts the cache's processes down: the dispatcher (serve loop and
// keyset daemon) stops, and closing the write-back queue makes the
// drainer exit once it has handed off its queued items. The generation
// reaper closes the cache's endpoint afterwards, which wakes the parked
// serve loop so it can observe the stop. Idempotent.
func (c *Cache) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.disp.Stop()
	c.wbq.Close()
}

// handlePush ingests an update pushed by Anna (§4.2), a message every
// subscriber shares.
func (c *Cache) handlePush(_ simnet.Message, b *anna.KeyUpdatePush) {
	c.ingestUpdate(b.Key, b.Lat)
}

// handleDAGDone evicts a completed request's version snapshots
// (Algorithm 1's sink notification).
func (c *Cache) handleDAGDone(_ simnet.Message, b *core.DAGDone) {
	if t, ok := c.snapshots[b.ReqID]; ok {
		c.dropTable(b.ReqID, t)
	}
}

// dropTable evicts reqID's table t and keeps it, emptied, for the next
// request.
func (c *Cache) dropTable(reqID string, t snapTable) {
	delete(c.snapshots, reqID)
	if len(t.keys) <= snapTableKeep {
		clear(t.keys)
		c.freeSnaps.Put(t.keys)
	}
}

// handleSnapshotFetch serves a peer cache's version-snapshot request
// (Algorithms 1 and 2's fetch_from_upstream). An empty ReqID is the
// warm-handoff form: the peer asks for this cache's current version of
// the key (WarmFill), not a per-request snapshot.
func (c *Cache) handleSnapshotFetch(req *simnet.Request, rb SnapshotFetchReq) {
	var resp SnapshotFetchResp
	if rb.ReqID == "" {
		if lat, ok := c.store[rb.Key]; ok {
			resp = SnapshotFetchResp{Lat: lat, Found: true}
		}
	} else if t, ok := c.snapshots[rb.ReqID]; ok {
		if lat, ok := t.keys[rb.Key]; ok {
			resp = SnapshotFetchResp{Lat: lat, Found: true}
		}
	}
	size := 16
	if resp.Found {
		size += resp.Lat.ByteSize()
	}
	req.Reply(resp, size)
}

// ingestUpdate merges a pushed key update, maintaining the causal cut in
// causal modes: the new version is only applied once its dependencies are
// satisfied locally (bolt-on causal consistency).
func (c *Cache) ingestUpdate(key string, lat lattice.Lattice) {
	c.Stats.UpdatesPushed++
	if c.cfg.Mode == core.MK || c.cfg.Mode == core.DSC {
		if cap, ok := lat.(*lattice.Causal); ok {
			c.ensureCut(cap)
		}
	}
	c.merge(key, lat)
}

// merge stores the join of the cached capsule and lat. Capsules are
// values, so the store, snapshots and replies share them.
func (c *Cache) merge(key string, lat lattice.Lattice) {
	if cur, ok := c.store[key]; ok {
		c.store[key] = cur.Merge(lat)
		return
	}
	c.store[key] = lat
	c.keysChurn.add(key)
	c.deltaChurn.add(key)
}

// churn is a set of keys whose membership in the store changed since it
// was last drained. Whether a key entered or left is read off the store
// at the drain: its last change decides, so a key added then evicted
// counts as removed and one evicted then re-added as added.
type churn struct {
	set  map[string]struct{}
	list []string // drain's output, reused by the next drain
}

func (ch *churn) add(key string) {
	if ch.set == nil {
		ch.set = make(map[string]struct{})
	}
	ch.set[key] = struct{}{}
}

// drain returns the set's keys in ascending order, valid until the next
// drain, and empties the set. Its storage is kept for the next drain
// unless this one held more than a quarter of stored keys: a burst (a
// VM's warm-up filling 1,000 keys at once) is not held for the cache's
// lifetime.
func (ch *churn) drain(stored int) []string {
	out := ch.list[:0]
	for k := range ch.set {
		out = append(out, k)
	}
	sort.Strings(out)
	if len(out) > stored/4 {
		ch.set, ch.list = nil, nil
	} else {
		clear(ch.set)
		ch.list = out
	}
	return out
}

// keysetTick publishes the cached-keyset delta to Anna so storage nodes
// can maintain the key→cache index (§4.2), and drops the snapshot tables
// of requests older than cfg.MaxRequestAge, which no DAGDone will free.
func (c *Cache) keysetTick() {
	added, removed := c.takeDelta()
	if age := c.cfg.MaxRequestAge; age > 0 {
		for id, t := range c.snapshots {
			if c.k.Now().Sub(t.born) > age {
				c.dropTable(id, t)
			}
		}
	}
	if len(added) > 0 || len(removed) > 0 {
		c.anna.PublishKeyset(c.ep.ID(), added, removed)
	}
}

// takeDelta drains the keyset delta: the keys that entered the store
// since the last drain and the keys that left it, each ascending. added
// is the churn's scratch, valid until the next drain (PublishKeyset
// copies what it sends).
func (c *Cache) takeDelta() (added, removed []string) {
	changed := c.deltaChurn.drain(len(c.store))
	added = changed[:0]
	for _, k := range changed {
		if _, ok := c.store[k]; ok {
			added = append(added, k)
		} else {
			removed = append(removed, k)
		}
	}
	return added, removed
}

// Keys returns the cached key set in ascending order, for metrics
// publication and the warm-restart seed. The slice is lent: it stays
// valid until the next call to Keys, which may rewrite it in place, so a
// caller encodes or copies it at once. An unchanged set costs nothing. A
// changed one is updated in place by the keys that entered or left since
// the last call: O(N + c log c) for c changed keys, never a sort of the
// whole set.
func (c *Cache) Keys() []string {
	if len(c.keysChurn.set) == 0 {
		return c.keys
	}
	// A forward pass drops the keys that left and gathers those that
	// entered at the front of the churn list; both write at or behind
	// where they read. A backward pass then merges the entered keys in.
	changed := c.keysChurn.drain(len(c.store))
	old, kept, entered := c.keys, c.keys[:0], changed[:0]
	for _, k := range changed {
		for len(old) > 0 && old[0] < k {
			kept, old = append(kept, old[0]), old[1:]
		}
		held := len(old) > 0 && old[0] == k
		if held {
			old = old[1:]
		}
		_, stored := c.store[k]
		switch {
		case stored && held:
			kept = append(kept, k)
		case stored:
			entered = append(entered, k)
		}
	}
	kept = append(kept, old...)
	i, j := len(kept)-1, len(entered)-1
	keys := slices.Grow(kept, len(entered))[:len(kept)+len(entered)]
	for ; j >= 0; j-- {
		for ; i >= 0 && keys[i] > entered[j]; i-- {
			keys[i+j+1] = keys[i]
		}
		keys[i+j+1] = entered[j]
	}
	c.keys = keys
	return keys
}

// Unsubscribe removes this dead cache from Anna's key→cache index for
// every key it holds or dropped since its last keyset publication.
func (c *Cache) Unsubscribe(kv *anna.KVS) {
	_, left := c.takeDelta()
	kv.Unsubscribe(c.ID(), append(slices.Clone(c.Keys()), left...))
}

// Contains reports whether key is cached, in no simulated time: its
// callers (Ctx.CachedLocally, resolveArgs) have slept the hop.
func (c *Cache) Contains(key string) bool {
	_, ok := c.store[key]
	return ok
}

// DropSnapshots discards all version snapshots (failure injection for
// §5.3's upstream-cache-failure path).
func (c *Cache) DropSnapshots() {
	c.snapshots = make(map[string]snapTable)
}

// Evict removes key locally, leaving the KVS copy, so the next read of it
// misses (the cold-read experiments and probes). A causal capsule leaves
// its clock as the key's floor for the next write.
func (c *Cache) Evict(key string) {
	if cur, ok := c.store[key]; ok {
		if cap, ok := cur.(*lattice.Causal); ok {
			c.floors[key] = cap.VC().Join(c.floors[key])
		}
		delete(c.store, key)
		c.keysChurn.add(key)
		c.deltaChurn.add(key)
	}
}

// Prefetch warm-fills the local store for a read set with one grouped
// Anna multi-get (§4.2 fan-out collapse): the keys absent locally, in
// sorted order, go out as one MultiGetReq per primary storage node, all
// in flight together, so a cold read of N keys costs one round trip per
// owning node instead of N, and the same allocations whatever the number
// of owners: each owner fills the client's pooled reply space. Results
// come back by position into a reused record and install in sorted key
// order, so a read set, warm or cold, allocates only its installs. The
// fill is best-effort — keys the grouped fetch misses (replication lag,
// an unreachable primary) are left to the per-key Read path, whose
// protocol (and its consistency obligations) is unchanged. In the causal
// modes each installed capsule maintains the local causal cut, exactly as
// a per-key fill would.
func (c *Cache) Prefetch(keys []string) {
	p, ok := c.freePrefetch.Get()
	if !ok {
		p = &prefetchCall{}
	}
	defer c.putPrefetch(p)
	for _, k := range keys {
		if _, ok := c.store[k]; !ok {
			p.missing = append(p.missing, k)
		}
	}
	if len(p.missing) < 2 {
		return // nothing to batch: the per-key path is already one round trip
	}
	sort.Strings(p.missing)
	p.found = slices.Grow(p.found, len(p.missing))[:len(p.missing)]
	if _, err := c.anna.MultiGet(p.missing, p.found...); err != nil {
		return
	}
	c.Stats.Prefetches++
	for i, k := range p.missing {
		lat := p.found[i]
		if lat == nil {
			continue
		}
		if c.cfg.Mode == core.MK || c.cfg.Mode == core.DSC {
			if cap, isCausal := lat.(*lattice.Causal); isCausal {
				c.ensureCut(cap)
			}
		}
		c.merge(k, lat)
		c.Stats.PrefetchedKeys++
	}
}

// prefetchCall is one Prefetch's keys absent locally and, aligned, their
// results, which only MultiGet writes, and only before it returns.
type prefetchCall struct {
	missing []string
	found   []lattice.Lattice
}

// putPrefetch empties a record, so it holds no key or lattice, and
// returns it to the free list unless it grew past prefetchKeep.
func (c *Cache) putPrefetch(p *prefetchCall) {
	clear(p.missing)
	clear(p.found)
	p.missing, p.found = p.missing[:0], p.found[:0]
	if cap(p.missing) <= prefetchKeep {
		c.freePrefetch.Put(p)
	}
}

// WarmFill restores keys from a live peer cache's current versions (the
// warm-handoff path of a replacement VM): each missing key is fetched
// with an empty-ReqID SnapshotFetchReq and installed exactly as a
// per-key fill would install it — in the causal modes every restored
// capsule maintains the local causal cut. Keys the peer lacks (or that
// arrive after the peer becomes unreachable) are left to the ordinary
// cold refault path. keys must be ascending, as Keys returns them: they
// are fetched in that order. Returns the number of keys restored.
func (c *Cache) WarmFill(peer simnet.NodeID, keys []string) (filled int) {
	for _, k := range keys {
		if _, have := c.store[k]; have {
			continue
		}
		resp, err := c.ep.Call(peer, SnapshotFetchReq{Key: k}, 32+len(k), 500*time.Millisecond)
		if err != nil {
			continue // peer unreachable; remaining keys refault cold
		}
		r := resp.(SnapshotFetchResp)
		if !r.Found {
			continue
		}
		if c.cfg.Mode == core.MK || c.cfg.Mode == core.DSC {
			if cap, isCausal := r.Lat.(*lattice.Causal); isCausal {
				c.ensureCut(cap)
			}
		}
		c.merge(k, r.Lat)
		filled++
		c.Stats.WarmFilledKeys++
	}
	return filled
}

// KVSStats reports the cache's Anna-client round-trip counters (the
// cold-read fan-out measurement in the Figure 5 experiment).
func (c *Cache) KVSStats() anna.ClientStats { return c.anna.Stats }

// fetchFromAnna misses to the KVS and installs the result locally. The
// Anna round trip lands on rctx as a KVS span (nested under the read
// that missed), so cold fills and cache hits separate in the breakdown.
func (c *Cache) fetchFromAnna(rctx trace.Ctx, key string) (lattice.Lattice, bool, error) {
	lat, found, err := c.anna.GetT(rctx, key)
	if err != nil || !found {
		return nil, found, err
	}
	if c.cfg.Mode == core.MK || c.cfg.Mode == core.DSC {
		if cap, ok := lat.(*lattice.Causal); ok {
			c.ensureCut(cap)
		}
	}
	c.merge(key, lat)
	return c.store[key], true, nil
}

// ensureCut makes the local store satisfy cap's dependency requirements
// (key → minimum vector clock): every dependency must be locally present
// at a version concurrent with or dominating the required clock. Missing
// or stale dependencies are fetched from Anna, with bounded retries to
// ride out replication lag. This is the bolt-on causal consistency shim
// (§5.3).
func (c *Cache) ensureCut(cap *lattice.Causal) {
	c.ensureCutDepth(cap, 0)
}

// maxCutDepth bounds transitive dependency filling. Deeper chains are
// completed lazily by later reads; unbounded recursion would walk an
// entire causal history on one ingest.
const maxCutDepth = 6

func (c *Cache) ensureCutDepth(cap *lattice.Causal, depth int) {
	if depth > maxCutDepth {
		return
	}
	// The walk yields the dependencies in ascending key order: a
	// deterministic fetch order without sorting. The capsule is a value,
	// so blocking fetches below cannot change what is left of the walk.
	for dk, need := range cap.Deps() {
		c.fill(dk, need, depth)
	}
}

// fill fetches key from Anna, with bounded retries, until the store holds
// a version that did not happen before need (concurrent or newer both
// preserve the cut), filling each fetched version's own dependencies one
// level deeper.
func (c *Cache) fill(key string, need lattice.Clock, depth int) {
	for attempt := 0; ; attempt++ {
		if cached, ok := c.store[key].(*lattice.Causal); ok && !cached.VC().HappensBefore(need) {
			return
		}
		if attempt >= depFetchRetries {
			return // expose best-effort; anti-entropy will converge
		}
		lat, found, err := c.anna.Get(key)
		if err == nil && found {
			if fetched, isCausal := lat.(*lattice.Causal); isCausal {
				// Recurse (depth-bounded): the fetched version's own deps
				// must also hold locally for the store to stay a causal cut.
				c.ensureCutDepth(fetched, depth+1)
			}
			c.merge(key, lat)
			continue // re-check satisfaction
		}
		c.k.Sleep(depFetchBackoff)
	}
}

// snapshot records the exact capsule a DAG read here; the first read's
// version sticks for the DAG's lifetime.
func (c *Cache) snapshot(reqID, key string, lat lattice.Lattice) {
	snaps := c.snapshotMap(reqID)
	if _, exists := snaps[key]; !exists {
		snaps[key] = lat
	}
}

// snapshotWrite records a DAG's own write, which supersedes any earlier
// read snapshot: downstream functions must observe the most recent update
// made within the DAG.
func (c *Cache) snapshotWrite(reqID, key string, lat lattice.Lattice) {
	c.snapshotMap(reqID)[key] = lat
}

// snapshotMap returns reqID's snapshot table, taking an emptied one off
// the free list for a request's first snapshot.
func (c *Cache) snapshotMap(reqID string) map[string]lattice.Lattice {
	t, ok := c.snapshots[reqID]
	if !ok {
		if t.keys, ok = c.freeSnaps.Get(); !ok {
			t.keys = make(map[string]lattice.Lattice)
		}
		t.born = c.k.Now()
		c.snapshots[reqID] = t
	}
	return t.keys
}

// fetchUpstream retrieves a version snapshot from the upstream cache that
// recorded it.
func (c *Cache) fetchUpstream(rctx trace.Ctx, upstream simnet.NodeID, reqID, key string) (lattice.Lattice, error) {
	c.Stats.UpstreamFetch++
	t0 := c.k.Now()
	resp, err := c.ep.Call(upstream, SnapshotFetchReq{ReqID: reqID, Key: key}, 32+len(key), 500*time.Millisecond)
	rctx.Record("cache/upstream", trace.Cache, t0, c.k.Now())
	if err != nil {
		return nil, fmt.Errorf("cache: upstream %s: %w", upstream, err)
	}
	r := resp.(SnapshotFetchResp)
	if !r.Found {
		return nil, ErrSnapshotGone
	}
	return r.Lat, nil
}

// SnapshotCount reports live snapshot requests (test hook).
func (c *Cache) SnapshotCount() int {
	return len(c.snapshots)
}
