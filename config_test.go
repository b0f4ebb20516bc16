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
// The root Config is an alias of cluster.Config, so it is listed once.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"anna.Config.Node",
		"anna.Config.Nodes",
		"anna.Config.Replication",
		"anna.NodeConfig.Hooks",
		"anna.NodeConfig.MemCapacity",
		"anna.NodeConfig.TxnSweep",
		"cache.Config.MaxRequestAge",
		"cache.Config.Mode",
		"cache.Config.Trace",
		"cluster.Config.AnnaNodes",
		"cluster.Config.Autoscale",
		"cluster.Config.DAGTimeout",
		"cluster.Config.MaxVMs",
		"cluster.Config.MinPinned",
		"cluster.Config.Mode",
		"cluster.Config.RandomScheduling",
		"cluster.Config.Replication",
		"cluster.Config.ScaleUpVMs",
		"cluster.Config.SchedulerDispatchCost",
		"cluster.Config.Schedulers",
		"cluster.Config.Seed",
		"cluster.Config.StaleAfter",
		"cluster.Config.ThreadsPerVM",
		"cluster.Config.Trace",
		"cluster.Config.Tracer",
		"cluster.Config.VMSpinUp",
		"cluster.Config.VMs",
		"monitor.Config.Decoded",
		"monitor.Config.MaxVMs",
		"monitor.Config.MinPin",
		"monitor.Config.MinVMs",
		"monitor.Config.ScaleUp",
		"monitor.Config.SchedKeys",
		"scheduler.Config.DAGTimeout",
		"scheduler.Config.Decoded",
		"scheduler.Config.DispatchCost",
		"scheduler.Config.RandomPolicy",
		"scheduler.Config.StaleAfter",
		"scheduler.Config.Trace",
	}
	var got []string
	for _, v := range []any{
		cluster.Config{}, anna.Config{}, anna.NodeConfig{},
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
