package main

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// perLayer assembles the per-layer metrics of a traced run from its five
// sources: harness spans, the CPU profile folded by layer, the layers' own
// counts, the simulated critical path, and the layer probes. plain is the
// workload's untraced repetition, traced the one run under the profiler
// with the virtual-time collector on; div is the run's size divisor.
func perLayer(plain, traced *repetition, div int, sp *spanLog) (map[string]metric, error) {
	out := make(map[string]metric)
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	n := float64(traced.sim.attempted)
	perReq := func(count int64) float64 { return float64(count) / n }
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}

	// 1. Harness spans (harness.wall_s is set last, below).
	set("cluster.boot_ms", "ms", traced.bootMS)
	set("cluster.close_ms", "ms", traced.closeMS)

	// 2. Host self-time by layer.
	samples, err := parseProfile(traced.profile)
	if err != nil {
		return nil, err
	}
	byLayer := foldByLayer(samples)
	var profiled float64
	for _, layer := range hostLayers {
		set(layer+".host_ms", "ms", byLayer[layer])
		profiled += byLayer[layer]
	}
	set("goruntime.gc_host_ms", "ms", byLayer[layerGC])
	set("goruntime.other_host_ms", "ms", byLayer[layerOther])
	profiled += byLayer[layerGC] + byLayer[layerOther]
	set("trace.host_cpu_s", "s", traced.hostCPUS)
	if cpuMS := traced.hostCPUS * 1e3; traced.fullSize && math.Abs(profiled-cpuMS) > 0.10*cpuMS {
		return nil, fmt.Errorf("the layers' host time sums to %.0f ms, more than 10%% from the %.0f ms of CPU the load phase used", profiled, cpuMS)
	}

	// 3. Counts from the layers' exported accessors.
	d := traced.delta
	fetched, read := d.misses+d.prefetchedKeys, d.hits+d.misses
	set("vtime.dispatches_per_req", "count", perReq(d.dispatches))
	set("vtime.timer_fires_per_req", "count", perReq(d.timerFires))
	set("vtime.spawn_reuse_ratio", "ratio", ratio(d.reuses, d.spawns+d.reuses))
	set("simnet.msgs_per_req", "count", perReq(d.msgs))
	set("simnet.wire_bytes_per_req", "B", perReq(d.wireBytes))
	set("cache.fetched_keys_per_req", "count", perReq(fetched))
	set("cache.hit_ratio", "ratio", math.Max(0, 1-ratio(fetched, read)))
	set("cache.updates_pushed_per_req", "count", perReq(d.updatesPushed))
	set("cache.upstream_fetches_per_req", "count", perReq(d.upstreamFetches))
	set("anna.client_rpcs_per_req", "count", perReq(d.annaRPCs))
	set("anna.resident_keys", "count", float64(d.residentKeys))
	set("cluster.vms_at_end", "count", float64(d.vms))
	set("cluster.live_procs_at_end", "count", float64(d.liveProcs))
	set("traffic.max_lag_ms", "ms", ms(traced.sim.maxLag))

	// 4. Simulated critical path, mean per request, named for the owning
	// layer; and what switching the collector and the profiler on cost.
	for cat, name := range layerOfCategory {
		if name != "" {
			set(name, "ms", traced.crit.byCat[cat])
		}
	}
	set("trace.sim_attributed_frac", "ratio", traced.crit.attributed)
	set("trace.overhead_frac", "ratio", traced.hostCPUS/plain.hostCPUS-1)

	// 5. Layer probes.
	for name, v := range runProbes(div) {
		unit := "ns"
		switch {
		case strings.Contains(name, "_us_"):
			unit = "us"
		case strings.Contains(name, "_ms_"):
			unit = "ms"
		}
		set(name, unit, v)
	}
	set("harness.wall_s", "s", time.Since(sp.t0).Seconds())
	return out, nil
}
