package cloudburst

import (
	"reflect"
	"slices"
	"testing"

	"cloudburst/internal/anna"
	"cloudburst/internal/cache"
	"cloudburst/internal/cluster"
	"cloudburst/internal/monitor"
	"cloudburst/internal/scheduler"
)

// TestConfigSurface pins every exported field of the deployment's config
// structs. A field with one value in use is a constant in the package that
// reads it, so a new knob fails here until this list is edited on purpose.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"anna.Config.Node",
		"anna.Config.Nodes",
		"anna.Config.Replication",
		"anna.NodeConfig.Hooks",
		"anna.NodeConfig.MemCapacity",
		"anna.NodeConfig.TxnSweep",
		"cache.Config.Mode",
		"cache.Config.Trace",
		"cloudburst.Config.AnnaNodes",
		"cloudburst.Config.Autoscale",
		"cloudburst.Config.DAGTimeout",
		"cloudburst.Config.MaxVMs",
		"cloudburst.Config.MinPinned",
		"cloudburst.Config.Mode",
		"cloudburst.Config.MonitorShards",
		"cloudburst.Config.RandomScheduling",
		"cloudburst.Config.Replication",
		"cloudburst.Config.ScaleUpVMs",
		"cloudburst.Config.SchedulerDispatchCost",
		"cloudburst.Config.Schedulers",
		"cloudburst.Config.Seed",
		"cloudburst.Config.StaleAfter",
		"cloudburst.Config.ThreadsPerVM",
		"cloudburst.Config.Trace",
		"cloudburst.Config.VMSpinUp",
		"cloudburst.Config.VMs",
		"cluster.Config.Anna",
		"cluster.Config.Cache",
		"cluster.Config.EnableMonitor",
		"cluster.Config.InitialVMs",
		"cluster.Config.Mode",
		"cluster.Config.Monitor",
		"cluster.Config.Scheduler",
		"cluster.Config.Schedulers",
		"cluster.Config.Seed",
		"cluster.Config.ThreadsPerVM",
		"cluster.Config.Trace",
		"cluster.Config.Tracer",
		"cluster.Config.VMSpinUp",
		"monitor.Config.Decoded",
		"monitor.Config.MaxVMs",
		"monitor.Config.MinPin",
		"monitor.Config.MinVMs",
		"monitor.Config.NewShardEP",
		"monitor.Config.ScaleUp",
		"monitor.Config.SchedKeys",
		"monitor.Config.Shards",
		"scheduler.Config.DAGTimeout",
		"scheduler.Config.Decoded",
		"scheduler.Config.DispatchCost",
		"scheduler.Config.RandomPolicy",
		"scheduler.Config.StaleAfter",
		"scheduler.Config.Trace",
	}
	var got []string
	for _, v := range []any{
		Config{}, cluster.Config{}, anna.Config{}, anna.NodeConfig{},
		cache.Config{}, scheduler.Config{}, monitor.Config{},
	} {
		typ := reflect.TypeOf(v)
		for i := range typ.NumField() {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, typ.String()+"."+f.Name)
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("config surface changed: new %q, gone %q", minus(got, want), minus(want, got))
	}
}

// minus returns the elements of a that b lacks.
func minus(a, b []string) (out []string) {
	for _, s := range a {
		if !slices.Contains(b, s) {
			out = append(out, s)
		}
	}
	return out
}
