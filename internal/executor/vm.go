package executor

import (
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
	"cloudburst/internal/vtime"
)

// MetricListKey is the registry Set of all executor-metric keys; the
// monitor and schedulers read it to discover threads (Anna has no scans,
// so discovery goes through a well-known set, §4.4).
const MetricListKey = "sys/metrics/exec-list"

// CacheListKey is the registry Set of all cache-metric keys.
const CacheListKey = "sys/metrics/cache-list"

// metricsInterval is the executor metric publication cadence.
const metricsInterval = 2 * time.Second

// VM is one function-execution machine: several worker threads plus the
// co-located cache, with a metrics publication daemon (§4.1-§4.2). The
// paper's c5.2xlarge VMs run 3 Python workers and 1 cache per machine.
type VM struct {
	Name    string
	Threads []*Thread

	k             *vtime.Kernel
	metricsClient *anna.Client
	stopped       bool
}

// NewVM bundles threads into a VM; the co-located cache whose metrics it
// publishes is the threads' shared one. The threads must already be
// constructed (they carry per-thread deps), at least one of them.
func NewVM(k *vtime.Kernel, name string, threads []*Thread, metricsClient *anna.Client) *VM {
	return &VM{
		Name:          name,
		Threads:       threads,
		k:             k,
		metricsClient: metricsClient,
	}
}

// Start launches the worker threads and the metrics daemon.
func (vm *VM) Start() {
	for _, t := range vm.Threads {
		t.Start()
	}
	vm.k.Go("vm-"+vm.Name+"/metrics", vm.metricsLoop)
}

// DrainMetrics halts the metrics daemon without stopping the worker
// threads: the VM keeps serving in-flight and queued work, but its
// metrics go stale, so schedulers drop its threads from the routing view
// after their StaleAfter horizon — the drain half of a rolling upgrade.
func (vm *VM) DrainMetrics() { vm.stopped = true }

// Stop halts the metrics daemon and the threads (after in-flight work).
func (vm *VM) Stop() {
	vm.stopped = true
	for _, t := range vm.Threads {
		t.Stop()
	}
}

// metricsLoop periodically publishes per-thread executor metrics and the
// cache's key set to Anna (§4.4: Anna as the metric-collection
// substrate).
func (vm *VM) metricsLoop() {
	// Register this VM's metric keys in the discovery sets once.
	keys := make([]string, len(vm.Threads))
	for i, t := range vm.Threads {
		keys[i] = core.ExecMetricsKey(string(t.ID()))
	}
	vm.metricsClient.Put(MetricListKey, lattice.NewSet(keys...))
	vm.metricsClient.Put(CacheListKey, lattice.NewSet(core.CacheKeysKey(vm.Name)))

	// Publish immediately so schedulers can discover a fresh VM without
	// waiting a full interval, then settle into the cadence.
	vm.publishMetrics()
	for {
		vm.k.Sleep(metricsInterval)
		if vm.stopped {
			return
		}
		vm.publishMetrics()
	}
}

func (vm *VM) publishMetrics() {
	now := int64(vm.k.Now())
	for _, t := range vm.Threads {
		m := t.MetricsSnapshot()
		payload := codec.MustEncode(m)
		vm.metricsClient.Put(core.ExecMetricsKey(string(t.ID())),
			lattice.NewLWW(lattice.Timestamp{Clock: now, Node: lattice.NodeHash(vm.Name)}, payload))
	}
	cm := core.CacheMetrics{
		VM:          vm.Name,
		Cache:       vm.Threads[0].cache.ID(),
		Keys:        codec.StrListOf(vm.Threads[0].cache.Keys()),
		ReportedAtS: vm.k.Now().Seconds(),
	}
	vm.metricsClient.Put(core.CacheKeysKey(vm.Name),
		lattice.NewLWW(lattice.Timestamp{Clock: now, Node: lattice.NodeHash(vm.Name)}, codec.MustEncode(cm)))
}
