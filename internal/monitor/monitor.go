// Package monitor implements Cloudburst's monitoring and resource
// management system (§4.4). It aggregates the metrics that executors and
// schedulers publish to Anna, and drives two policies:
//
//   - function-replica scaling: per DAG, compare the incoming request
//     rate against the completion rate and adjust how many executor
//     threads each function is pinned on (Little's-law target with
//     hysteresis);
//   - node scaling: add VMs when average executor utilization exceeds
//     the high threshold (70%), remove them below the low threshold
//     (20%), subject to EC2-like spin-up delays owned by the compute
//     pool.
//
// Every decision is appended to an event log that the Figure 7
// experiment samples.
package monitor

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/core"
	"cloudburst/internal/dag"
	"cloudburst/internal/executor"
	"cloudburst/internal/scheduler"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// ComputePool is the monitor's handle on the compute tier, implemented
// by the cluster ("Kubernetes" in the paper — used simply to start
// containers, §4).
type ComputePool interface {
	// AddVMs asynchronously boots n VMs; they join after the spin-up
	// delay.
	AddVMs(n int)
	// RemoveVMs tears down up to n VMs, chosen by the pool (not by
	// load), and returns how many were removed.
	RemoveVMs(n int) int
	// VMCount reports live VMs; PendingVMs reports VMs still booting.
	VMCount() int
	PendingVMs() int
	// Threads lists live executor threads in deterministic order.
	Threads() []simnet.NodeID
}

// The §4.4 policy constants no deployment varies.
const (
	policyInterval = 5 * time.Second // policy loop cadence
	utilHigh       = 0.70            // add nodes above this average utilization
	utilLow        = 0.20            // remove nodes below it
	scaleDown      = 2               // VMs removed per underload tick
	// backlogHigh is the request-backlog node-scaling signal (§4.4
	// discusses tracking incoming request rates alongside utilization):
	// when the outstanding DAG requests per live executor thread exceed
	// it, VMs are added even if the lagging utilization reports sit just
	// below utilHigh — the dead zone the 0.70 threshold alone leaves
	// between pin saturation and node adds.
	backlogHigh = 2.0
)

// Config carries the §4.4 policy settings a deployment varies.
type Config struct {
	MinVMs  int
	MaxVMs  int
	ScaleUp int // VMs added per saturation event (20 in §6.1.4)
	MinPin  int // replica floor per function
	// Decoded is an optional cluster-shared decoded-metrics cache; nil
	// gives the monitor a private one.
	Decoded *core.DecodeCache
	// SchedKeys is the scheduler-registry key set the deployment is
	// expected to converge to (sorted). The scheduler group is static
	// for a cluster's lifetime, so once the cached sched-list matches
	// this expectation the per-tick listing read is skipped — an
	// unchanged registry costs zero Anna reads. Empty disables the
	// skip and every tick reads the listing.
	SchedKeys []string
}

// DefaultConfig returns the paper's thresholds.
func DefaultConfig() Config {
	return Config{
		MinVMs:  1,
		MaxVMs:  1 << 30,
		ScaleUp: 20,
		MinPin:  1,
	}
}

// Event is one policy action, for reports.
type Event struct {
	At     vtime.Time
	Action string
}

// Monitor is the resource-management daemon. Its policy tick runs as a
// periodic process on a simnet.Dispatcher, which also gives it a place to
// register handlers if it ever grows an RPC surface.
type Monitor struct {
	k    *vtime.Kernel
	ep   *simnet.Endpoint
	anna *anna.Client
	pool ComputePool
	cfg  Config
	disp *simnet.Dispatcher

	threadMetrics map[simnet.NodeID]core.ExecutorMetrics
	pins          map[string][]simnet.NodeID
	prevCalls     map[string]int64
	prevDone      map[string]int64
	lastTick      vtime.Time
	// decoded caches decoded metric payloads by exact LWW version, so
	// unchanged publications (and immutable DAG topologies) are decoded
	// once instead of on every policy tick. Shared cluster-wide when
	// Config.Decoded is set.
	decoded *core.DecodeCache
	// execReg/schedReg keep each registry's sorted key list between
	// policy ticks: fleet membership changes rarely, so most ticks
	// neither re-sort nor, once the list matches the expected membership,
	// read the listing.
	execReg, schedReg core.Registry

	Events []Event
}

// New creates a monitor bound to endpoint ep.
func New(k *vtime.Kernel, ep *simnet.Endpoint, ac *anna.Client, pool ComputePool, cfg Config) *Monitor {
	m := &Monitor{
		k:             k,
		ep:            ep,
		anna:          ac,
		pool:          pool,
		cfg:           cfg,
		disp:          simnet.NewDispatcher(ep, "monitor"),
		threadMetrics: make(map[simnet.NodeID]core.ExecutorMetrics),
		pins:          make(map[string][]simnet.NodeID),
		prevCalls:     make(map[string]int64),
		prevDone:      make(map[string]int64),
		decoded:       cfg.Decoded,
		execReg:       core.Registry{ListKey: executor.MetricListKey},
		schedReg:      core.Registry{ListKey: scheduler.SchedListKey},
	}
	if m.decoded == nil {
		m.decoded = core.NewDecodeCache()
	}
	return m
}

// ID is the monitor's network endpoint, which sends its pin commands and
// reads the registries — the surface a fault plan partitions.
func (m *Monitor) ID() simnet.NodeID { return m.ep.ID() }

// Start launches the policy loop.
func (m *Monitor) Start() {
	m.lastTick = m.k.Now()
	m.disp.Every("policy", policyInterval, m.tick)
}

func (m *Monitor) tick() {
	calls, done := m.refresh()
	elapsed := m.k.Now().Sub(m.lastTick).Seconds()
	if elapsed <= 0 {
		elapsed = policyInterval.Seconds()
	}
	m.lastTick = m.k.Now()

	m.scaleReplicas(calls, done, elapsed)
	m.scaleNodes(calls, done)
}

// refresh pulls executor and scheduler metrics from Anna and returns the
// cumulative per-DAG call and completion counters. Like the schedulers'
// refreshView, each metric registry is read with one grouped multi-get
// instead of one Get per key; keys the grouped read misses (replication
// lag at the primary) are simply absent this tick. The executor registry
// is read in full before the scheduler registry is listed, and the
// counters are summed afresh every tick.
func (m *Monitor) refresh() (calls, done map[string]int64) {
	// The compute pool is the authoritative thread-liveness source (the
	// monitor owns VM lifecycle): a crashed or deallocated VM's threads
	// leave their final reports in Anna forever, and without this filter
	// those ghost entries keep dead pins counted (so a crashed replica is
	// never replaced) and frozen utilizations averaged into the scaling
	// signals.
	live := make(map[simnet.NodeID]bool)
	for _, id := range m.pool.Threads() {
		live[id] = true
	}
	fresh := make(map[simnet.NodeID]core.ExecutorMetrics)
	pins := make(map[string][]simnet.NodeID)
	for _, em := range core.FetchAll[core.ExecutorMetrics](m.anna, m.decoded, m.execReg.Keys(m.anna, m.expectedExecKeys())) {
		if !live[em.Thread] {
			continue
		}
		fresh[em.Thread] = em
		for _, fn := range em.Pinned {
			pins[fn] = append(pins[fn], em.Thread)
		}
	}
	if len(fresh) > 0 {
		m.threadMetrics = fresh
		m.pins = pins
		for _, ts := range m.pins {
			sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		}
	}

	calls = make(map[string]int64)
	done = make(map[string]int64)
	for _, sm := range core.FetchAll[core.SchedulerMetrics](m.anna, m.decoded, m.schedReg.Keys(m.anna, m.cfg.SchedKeys)) {
		for d, n := range sm.DAGCalls {
			calls[d] += n
		}
		for fn, n := range sm.FnCalls {
			if len(fn) > 5 && fn[:5] == "done/" {
				done[fn[5:]] += n
			}
		}
	}
	return calls, done
}

// expectedExecKeys derives the executor-registry key set from the
// compute pool's live thread list — the authoritative membership
// source, available without touching Anna.
func (m *Monitor) expectedExecKeys() []string {
	threads := m.pool.Threads()
	out := make([]string, len(threads))
	for i, id := range threads {
		out[i] = core.ExecMetricsKey(string(id))
	}
	sort.Strings(out)
	return out
}

// scaleReplicas adjusts per-function pin counts. Growth is driven by two
// signals: request backlog (incoming rate above completions, §4.4) and
// replica saturation (a closed-loop workload's demand never shows up as
// backlog — the queue lives in the clients — so saturated pinned
// replicas must grow too). Shrink only happens when the replicas are
// demonstrably idle.
func (m *Monitor) scaleReplicas(calls, done map[string]int64, elapsed float64) {
	dagNames := make([]string, 0, len(calls))
	for d := range calls {
		dagNames = append(dagNames, d)
	}
	sort.Strings(dagNames)
	for _, dname := range dagNames {
		incoming := float64(calls[dname]-m.prevCalls[dname]) / elapsed
		completed := float64(done[dname]-m.prevDone[dname]) / elapsed
		m.prevCalls[dname] = calls[dname]
		m.prevDone[dname] = done[dname]

		// The DAG's topology, from Anna (the source of truth for system
		// metadata, §4.4).
		d, ok := core.Fetch[dag.DAG](m.anna, m.decoded, core.DAGKey(dname))
		if !ok {
			continue
		}
		avgLat := m.avgLatency()
		target := int(math.Ceil(incoming * avgLat * 1.25))
		if target < m.cfg.MinPin {
			target = m.cfg.MinPin
		}
		if n := len(m.pool.Threads()); target > n {
			target = n
		}
		for _, fn := range d.Functions {
			cur := len(m.pins[fn])
			util := m.pinnedUtil(fn)
			switch {
			case cur < m.cfg.MinPin:
				m.pinMore(fn, m.cfg.MinPin-cur)
			case util > utilHigh:
				// Saturated replicas: grow multiplicatively so a burst
				// reaches the fleet in a few policy ticks.
				grow := cur / 2
				if grow < 1 {
					grow = 1
				}
				m.pinMore(fn, grow)
			case incoming > completed*1.05 && cur < target:
				m.pinMore(fn, target-cur)
			case util < utilLow && target < cur && float64(target) < float64(cur)*0.7:
				m.unpinSome(fn, cur-target)
			}
		}
	}
}

// PinsForVM returns the union of functions pinned on a VM's threads, as
// of its last metrics publication. The cluster's lifecycle manager uses
// it to seed a warm replacement with the dead generation's pin set.
func (m *Monitor) PinsForVM(vm string) []string {
	set := make(map[string]bool)
	for _, em := range m.threadMetrics {
		if em.VM != vm {
			continue
		}
		for _, fn := range em.Pinned {
			set[fn] = true
		}
	}
	out := make([]string, 0, len(set))
	for fn := range set {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}

// pinnedUtil averages the reported utilization of a function's pinned
// threads.
func (m *Monitor) pinnedUtil(fn string) float64 {
	ts := m.pins[fn]
	if len(ts) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range ts {
		sum += m.threadMetrics[t].Utilization
	}
	return sum / float64(len(ts))
}

// avgLatency averages the threads' reported execution latency; defaults
// to 50ms when nothing is reported yet.
func (m *Monitor) avgLatency() float64 {
	sum, n := 0.0, 0
	for _, em := range m.threadMetrics {
		if em.AvgLatencyS > 0 {
			sum += em.AvgLatencyS
			n++
		}
	}
	if n == 0 {
		return 0.05
	}
	return sum / float64(n)
}

// pinMore pins fn onto up to n additional least-utilized threads,
// spreading the new pins across VMs the way the scheduler's
// pickPinTargets does: one pick per distinct VM first, then fill the
// remainder by (util, id). Without the spread, equal utilizations (the
// common state right after a VM crash) made the sort's thread-id
// tie-break concentrate every replacement pin on the
// lexicographically-lowest threads of one surviving VM.
func (m *Monitor) pinMore(fn string, n int) {
	if n <= 0 {
		return
	}
	pinned := make(map[simnet.NodeID]bool, len(m.pins[fn]))
	for _, t := range m.pins[fn] {
		pinned[t] = true
	}
	type cand struct {
		id   simnet.NodeID
		util float64
		vm   string
	}
	var cands []cand
	for _, id := range m.pool.Threads() {
		if !pinned[id] {
			em := m.threadMetrics[id]
			cands = append(cands, cand{id, em.Utilization, em.VM})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].util != cands[j].util {
			return cands[i].util < cands[j].util
		}
		return cands[i].id < cands[j].id
	})
	added := 0
	picked := make(map[simnet.NodeID]bool, n)
	pick := func(c cand) {
		m.ep.Send(c.id, core.PinFunction{Function: fn}, 32)
		m.pins[fn] = append(m.pins[fn], c.id)
		picked[c.id] = true
		added++
	}
	usedVM := make(map[string]bool)
	for _, c := range cands {
		if added >= n {
			break
		}
		if usedVM[c.vm] {
			continue
		}
		usedVM[c.vm] = true
		pick(c)
	}
	for _, c := range cands { // fill remainder ignoring the VM spread
		if added >= n {
			break
		}
		if !picked[c.id] {
			pick(c)
		}
	}
	if added > 0 {
		m.event(fmt.Sprintf("pin %s +%d (now %d)", fn, added, len(m.pins[fn])))
	}
}

// unpinSome releases up to n replicas of fn, most-utilized last.
func (m *Monitor) unpinSome(fn string, n int) {
	cur := m.pins[fn]
	n = min(n, len(cur)-m.cfg.MinPin)
	if n <= 0 {
		return
	}
	removed := 0
	for i := len(cur) - 1; i >= 0 && removed < n; i-- {
		m.ep.Send(cur[i], core.UnpinFunction{Function: fn}, 32)
		removed++
	}
	m.pins[fn] = cur[:len(cur)-removed]
	m.event(fmt.Sprintf("unpin %s -%d (now %d)", fn, removed, len(m.pins[fn])))
}

// scaleNodes applies the 70/20 node-count thresholds (§4.4), waiting out
// pending boots before adding again. Alongside utilization it watches
// the request backlog (cumulative calls minus terminal outcomes): the
// utilization reports lag by a metrics interval and saturate just below
// the threshold under perfectly-balanced closed-loop load, so backlog
// per thread is the signal that closes that dead zone.
func (m *Monitor) scaleNodes(calls, done map[string]int64) {
	if len(m.threadMetrics) == 0 {
		return
	}
	sum := 0.0
	for _, em := range m.threadMetrics {
		sum += em.Utilization
	}
	avg := sum / float64(len(m.threadMetrics))
	var backlog int64
	for d, n := range calls {
		if out := n - done[d]; out > 0 {
			backlog += out
		}
	}
	perThread := float64(backlog) / float64(len(m.threadMetrics))
	switch {
	case (avg > utilHigh || perThread > backlogHigh) && m.pool.PendingVMs() == 0 && m.pool.VMCount() < m.cfg.MaxVMs:
		n := m.cfg.ScaleUp
		if m.pool.VMCount()+n > m.cfg.MaxVMs {
			n = m.cfg.MaxVMs - m.pool.VMCount()
		}
		if n > 0 {
			m.pool.AddVMs(n)
			m.event(fmt.Sprintf("add %d VMs (util %.2f, backlog %.1f/thread)", n, avg, perThread))
		}
	case avg < utilLow && m.pool.VMCount() > m.cfg.MinVMs:
		n := scaleDown
		if m.pool.VMCount()-n < m.cfg.MinVMs {
			n = m.pool.VMCount() - m.cfg.MinVMs
		}
		if removed := m.pool.RemoveVMs(n); removed > 0 {
			m.event(fmt.Sprintf("remove %d VMs (util %.2f)", removed, avg))
		}
	}
}

func (m *Monitor) event(action string) {
	m.Events = append(m.Events, Event{At: m.k.Now(), Action: action})
}

// KVSStats reports the monitor's own Anna-client counters (test hook:
// the listing-skip assertions count Get RPCs across refresh ticks).
func (m *Monitor) KVSStats() anna.ClientStats { return m.anna.Stats }

// Pins reports the current replica count for fn (test hook).
func (m *Monitor) Pins(fn string) int { return len(m.pins[fn]) }

// PinnedThreads reports the threads fn is currently pinned on (test
// hook; the copy is safe to inspect across ticks).
func (m *Monitor) PinnedThreads(fn string) []simnet.NodeID {
	return append([]simnet.NodeID(nil), m.pins[fn]...)
}
