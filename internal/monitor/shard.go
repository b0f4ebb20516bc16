package monitor

// Partitioned metric aggregation: with Config.Shards > 1 the registry
// scan is split by key hash across N endpoints that multi-get their
// partitions concurrently, and scheduler counters are folded into
// running aggregates as exact integer deltas — an unchanged
// publication (same LWW version as last tick) costs nothing instead of
// a decode-and-resum of the whole registry. The aggregate therefore
// equals the full recompute bit-for-bit while each tick's work tracks
// the number of *changed* capsules, not registry size.

import (
	"fmt"
	"sort"
	"strings"

	"cloudburst/internal/anna"
	"cloudburst/internal/core"
	"cloudburst/internal/executor"
	"cloudburst/internal/lattice"
	"cloudburst/internal/scheduler"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// shard is one partition scanner: its own endpoint and KVS client (so
// its multi-gets overlap the other shards') plus the per-key
// contributions it has folded into the monitor's aggregates.
type shard struct {
	ep      *simnet.Endpoint
	anna    *anna.Client
	contrib map[string]schedContrib
}

// schedContrib is one scheduler capsule's last-applied contribution.
type schedContrib struct {
	ts    lattice.Timestamp
	calls map[string]int64
	done  map[string]int64
}

func newShard(ep *simnet.Endpoint, ac *anna.Client) *shard {
	return &shard{ep: ep, anna: ac, contrib: make(map[string]schedContrib)}
}

// shardOf places a registry key on a shard (FNV-1a).
func shardOf(key string, n int) int {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	return int(h % uint64(n))
}

// shardScan is one shard's per-tick executor-metrics view.
type shardScan struct {
	fresh map[simnet.NodeID]core.ExecutorMetrics
	pins  map[string][]simnet.NodeID
}

// refreshSharded is refresh() for a partitioned monitor: list keys
// once, hash-partition them, scan every partition concurrently, merge.
// The returned maps are the monitor's running aggregates.
func (m *Monitor) refreshSharded() (calls, done map[string]int64) {
	live := make(map[simnet.NodeID]bool)
	for _, id := range m.pool.Threads() {
		live[id] = true
	}
	// Key lists and their partitions come from the membership-keyed
	// cache: an unchanged fleet reuses last tick's sort and hash-split,
	// and a cached list that already equals the CPU-side expectation
	// skips the listing read itself (see listRegistry).
	n := len(m.shards)
	var execParts, schedParts [][]string
	if m.listRegistry(&m.execKeys, executor.MetricListKey, m.expectedExecKeys()) != nil {
		execParts = m.execKeys.partitions(n)
	}
	if m.listRegistry(&m.schedKeys, scheduler.SchedListKey, m.cfg.SchedKeys) != nil {
		schedParts = m.schedKeys.partitions(n)
	}
	if execParts == nil {
		execParts = make([][]string, n)
	}
	if schedParts == nil {
		schedParts = make([][]string, n)
	}

	results := make([]shardScan, n)
	wg := vtime.NewWaitGroup(m.k)
	for i := range m.shards {
		i := i
		wg.Add(1)
		m.k.Go(fmt.Sprintf("monitor/shard-%d", i), func() {
			defer wg.Done()
			results[i] = m.shards[i].scan(m, execParts[i], schedParts[i], live)
		})
	}
	wg.Wait()

	fresh := make(map[simnet.NodeID]core.ExecutorMetrics)
	pins := make(map[string][]simnet.NodeID)
	for _, res := range results {
		for id, em := range res.fresh {
			fresh[id] = em
		}
		for fn, ts := range res.pins {
			pins[fn] = append(pins[fn], ts...)
		}
	}
	// Same per-tick semantics as the single scanner: executor views are
	// fresh-or-kept wholesale, pins sorted for determinism.
	if len(fresh) > 0 {
		m.threadMetrics = fresh
		m.pins = pins
		for _, ts := range m.pins {
			sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		}
	}
	return m.aggCalls, m.aggDone
}

// scan multi-gets one shard's partition and applies it: executor
// capsules build this tick's fresh view; scheduler capsules fold into
// the monitor's aggregates as deltas, skipping unchanged versions
// entirely.
func (s *shard) scan(m *Monitor, execKeys, schedKeys []string, live map[simnet.NodeID]bool) shardScan {
	res := shardScan{
		fresh: make(map[simnet.NodeID]core.ExecutorMetrics),
		pins:  make(map[string][]simnet.NodeID),
	}
	keys := make([]string, 0, len(execKeys)+len(schedKeys))
	keys = append(keys, execKeys...)
	keys = append(keys, schedKeys...)
	if len(keys) == 0 {
		return res
	}
	got, _, err := s.anna.MultiGet(keys)
	if err != nil {
		return res
	}
	for i, key := range execKeys {
		l, ok := got[i].(*lattice.LWW)
		if !ok {
			continue
		}
		v, ok := m.decoded.Decode(key, l)
		if !ok {
			continue
		}
		em, ok := v.(core.ExecutorMetrics)
		if !ok || !live[em.Thread] {
			continue
		}
		res.fresh[em.Thread] = em
		for _, fn := range em.Pinned {
			res.pins[fn] = append(res.pins[fn], em.Thread)
		}
	}
	schedGot := got[len(execKeys):] // keys lists execKeys, then schedKeys
	for i, key := range schedKeys {
		l, ok := schedGot[i].(*lattice.LWW)
		if !ok {
			continue
		}
		old, seen := s.contrib[key]
		if seen && old.ts == l.TS {
			continue // unchanged publication: zero work this tick
		}
		v, ok := m.decoded.Decode(key, l)
		if !ok {
			continue
		}
		sm, ok := v.(core.SchedulerMetrics)
		if !ok {
			continue
		}
		// Retract the stale contribution, apply the new one — exact
		// integer deltas, so the aggregate equals a full recompute.
		for d, c := range old.calls {
			m.aggCalls[d] -= c
		}
		for d, c := range old.done {
			m.aggDone[d] -= c
		}
		nc := make(map[string]int64, len(sm.DAGCalls))
		for d, c := range sm.DAGCalls {
			nc[d] = c
			m.aggCalls[d] += c
		}
		nd := make(map[string]int64)
		for fn, c := range sm.FnCalls {
			if strings.HasPrefix(fn, "done/") {
				nd[fn[5:]] = c
				m.aggDone[fn[5:]] += c
			}
		}
		s.contrib[key] = schedContrib{ts: l.TS, calls: nc, done: nd}
	}
	return res
}
