package main

// Every read of an internal/* accessor that the runner makes is in this
// file. The benchmark directory is frozen for PRs that claim a gain, so
// each symbol used here is API those PRs must keep: Cluster.Internal and
// its K, Net, KV fields, VMs, VMCount; Kernel.Stats;
// Network.MessagesSent/BytesSent; VMHandle.Cache; Cache.Stats,
// Cache.KVSStats, Cache.Prefetch, Cache.Evict; KVS.TotalKeys;
// Collector.Summaries.
// Counters that ROADMAP plans to delete (gob counters, Reexecutions,
// ShadowAdoptions, MemoHits, Monitor.Events) are deliberately not read.

import (
	"time"

	cb "cloudburst"
	"cloudburst/internal/cluster"
	"cloudburst/internal/trace"
)

// counters is one reading of the layers' exported counts. Each field
// repeats exactly from run to run of the same seed.
type counters struct {
	dispatches, timerFires, spawns, reuses, liveProcs int64 // vtime
	msgs, wireBytes                                   int64 // simnet
	hits, misses, prefetchedKeys                      int64 // cache
	updatesPushed, upstreamFetches                    int64 // cache
	annaRPCs                                          int64 // get+put+multi-get round trips the caches issued
	residentKeys, vms                                 int
}

// counterReader reads a cluster's counters. It remembers every VM it has
// seen, because a VM the autoscaler removes leaves Cluster.VMs and would
// take its cache counts out of the sum.
type counterReader struct {
	c    *cb.Cluster
	seen map[string]*cluster.VMHandle
}

func newCounterReader(c *cb.Cluster) *counterReader {
	return &counterReader{c: c, seen: make(map[string]*cluster.VMHandle)}
}

// observe records the currently running VMs.
func (r *counterReader) observe() {
	for _, vm := range r.c.Internal().VMs() {
		r.seen[vm.Name] = vm
	}
}

func (r *counterReader) read() counters {
	r.observe()
	in := r.c.Internal()
	ks := in.K.Stats()
	out := counters{
		dispatches: ks.Dispatches, timerFires: ks.TimerFires,
		spawns: ks.Spawns, reuses: ks.Reuses, liveProcs: ks.LiveProcs,
		msgs: in.Net.MessagesSent, wireBytes: in.Net.BytesSent,
		residentKeys: in.KV.TotalKeys(), vms: in.VMCount(),
	}
	for _, vm := range r.seen {
		st, kv := vm.Cache.Stats, vm.Cache.KVSStats()
		out.hits += st.Hits
		out.misses += st.Misses
		out.prefetchedKeys += st.PrefetchedKeys
		out.updatesPushed += st.UpdatesPushed
		out.upstreamFetches += st.UpstreamFetch
		out.annaRPCs += kv.GetRPCs + kv.PutRPCs + kv.MultiGetRPCs
	}
	return out
}

func vmCount(c *cb.Cluster) int { return c.Internal().VMCount() }

// warmCaches makes keys resident in every VM's cache through the cache's
// own grouped prefetch.
func warmCaches(c *cb.Cluster, keys []string) {
	c.Run(func(*cb.Client) {
		for _, vm := range c.Internal().VMs() {
			vm.Cache.Prefetch(keys)
		}
	})
}

// evictEverywhere drops keys from every VM's cache, so that the next read
// of each misses.
func evictEverywhere(c *cb.Cluster, keys []string) {
	for _, vm := range c.Internal().VMs() {
		for _, key := range keys {
			vm.Cache.Evict(key)
		}
	}
}

// critPath is the mean simulated time per request in each critical-path
// category, from the program's own virtual-time collector.
type critPath struct {
	byCat      [trace.NumCategories]float64 // ms per request
	attributed float64                      // share of request time charged to a named category
}

// layerOfCategory names each critical-path category for the layer that
// owns it; index by trace.Category.
var layerOfCategory = [trace.NumCategories]string{
	trace.Queue:    "scheduler.sim_queue_ms",
	trace.Dispatch: "scheduler.sim_dispatch_ms",
	trace.Retry:    "scheduler.sim_retry_ms",
	trace.KVS:      "anna.sim_kvs_ms",
	trace.Cache:    "cache.sim_cache_ms",
	trace.Compute:  "executor.sim_compute_ms",
	trace.Network:  "simnet.sim_network_ms",
}

// newCollector returns the span collector a traced run hands to
// Config.Trace.
func newCollector() *trace.Collector { return trace.New() }

// finishedTraces counts the requests the collector has finished so far.
func finishedTraces(col *trace.Collector) int { return len(col.Summaries()) }

// foldCritPath averages the summaries finished after the first skip.
func foldCritPath(col *trace.Collector, skip int) critPath {
	sums := col.Summaries()[skip:]
	var cp critPath
	var wall, unattributed time.Duration
	var byCat [trace.NumCategories]time.Duration
	for _, s := range sums {
		wall += s.Wall
		unattributed += s.ByCat[trace.Unattributed]
		for c, d := range s.ByCat {
			byCat[c] += d
		}
	}
	if wall == 0 {
		return cp
	}
	for c, d := range byCat {
		cp.byCat[c] = ms(d) / float64(len(sums))
	}
	cp.attributed = float64(wall-unattributed) / float64(wall)
	return cp
}
