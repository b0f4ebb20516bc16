package bench

import (
	"reflect"
	"slices"
	"testing"

	"cloudburst/internal/workload"
)

// TestParamSurface pins every exported field of the experiment configs
// and of the workload parameter structs, as the root TestConfigSurface
// does for the deployment's configs. A parameter with one value in use
// is a constant in the code that reads it, so a new field fails here
// until this list is edited on purpose. Crash, which three configs
// embed, is listed once.
func TestParamSurface(t *testing.T) {
	want := []string{
		"bench.AblationConfig.Clients",
		"bench.AblationConfig.Elems",
		"bench.AblationConfig.Seed",
		"bench.AblationConfig.Trials",
		"bench.ChaosConfig.Clients",
		"bench.ChaosConfig.Faults",
		"bench.ChaosConfig.Lifecycle",
		"bench.ChaosConfig.Modes",
		"bench.ChaosConfig.Requests",
		"bench.ChaosConfig.Seed",
		"bench.ChaosConfig.Txn",
		"bench.ChaosConfig.Window",
		"bench.ChaosConfig.Workloads",
		"bench.Crash.KillAt",
		"bench.Crash.RestFor",
		"bench.Crash.RunFor",
		"bench.Crash.VMSpinUp",
		"bench.Fig10Config.Requests",
		"bench.Fig10Config.Seed",
		"bench.Fig10Config.Threads",
		"bench.Fig10FailureConfig.Clients",
		"bench.Fig10FailureConfig.Compute",
		"bench.Fig10FailureConfig.Crash",
		"bench.Fig10FailureConfig.Deadline",
		"bench.Fig10FailureConfig.Seed",
		"bench.Fig10FailureConfig.Trace",
		"bench.Fig10FailureConfig.VMs",
		"bench.Fig10LifecycleConfig.Clients",
		"bench.Fig10LifecycleConfig.Crash",
		"bench.Fig10LifecycleConfig.Keys",
		"bench.Fig10LifecycleConfig.Seed",
		"bench.Fig10LifecycleConfig.SpikeWin",
		"bench.Fig10LifecycleConfig.VMs",
		"bench.Fig10LifecycleConfig.ValueBytes",
		"bench.Fig11Config.Clients",
		"bench.Fig11Config.Requests",
		"bench.Fig11Config.Retwis",
		"bench.Fig11Config.Seed",
		"bench.Fig12Config.Requests",
		"bench.Fig12Config.Retwis",
		"bench.Fig12Config.Seed",
		"bench.Fig12Config.Threads",
		"bench.Fig13Config.Compute",
		"bench.Fig13Config.DispatchCost",
		"bench.Fig13Config.Drain",
		"bench.Fig13Config.Keys",
		"bench.Fig13Config.Loads",
		"bench.Fig13Config.SchedulerCounts",
		"bench.Fig13Config.VMs",
		"bench.Fig13Config.Window",
		"bench.Fig13Config.Workers",
		"bench.Fig14Config.ChromeOut",
		"bench.Fig14Config.Knee",
		"bench.Fig14Config.KneeLoad",
		"bench.Fig14Config.ReadTrials",
		"bench.Fig14Config.Seed",
		"bench.Fig14Config.Spike",
		"bench.Fig15Config.Clients",
		"bench.Fig15Config.Crash",
		"bench.Fig15Config.Requests",
		"bench.Fig15Config.Seed",
		"bench.Fig1Config.Seed",
		"bench.Fig1Config.Trials",
		"bench.Fig5Config.Clients",
		"bench.Fig5Config.Elems",
		"bench.Fig5Config.Seed",
		"bench.Fig5Config.Trials",
		"bench.Fig6Config.Rounds",
		"bench.Fig6Config.Seed",
		"bench.Fig7Config.Clients",
		"bench.Fig7Config.DrainFor",
		"bench.Fig7Config.InitialVMs",
		"bench.Fig7Config.Keys",
		"bench.Fig7Config.LoadFor",
		"bench.Fig7Config.ScaleUpVMs",
		"bench.Fig7Config.Seed",
		"bench.Fig7Config.VMSpinUp",
		"bench.Fig8Config.Clients",
		"bench.Fig8Config.DAGs",
		"bench.Fig8Config.Keys",
		"bench.Fig8Config.Requests",
		"bench.Fig8Config.Seed",
		"bench.Fig9Config.Seed",
		"bench.Fig9Config.Trials",
		"bench.Table2Config.Executions",
		"bench.Table2Config.Fig8",
		"workload.ArraySum.Elems",
		"workload.ArraySum.NumArrays",
		"workload.Bank.Accounts",
		"workload.Gossip.Actors",
		"workload.Gossip.MaxSteps",
		"workload.PredServe.ModelBytes",
		"workload.PredServe.ModelTime",
		"workload.Retwis.Tweets",
		"workload.Retwis.Users",
	}
	var got []string
	for _, v := range []any{
		AblationConfig{}, ChaosConfig{}, Crash{},
		Fig1Config{}, Fig5Config{}, Fig6Config{}, Fig7Config{}, Fig8Config{}, Fig9Config{},
		Fig10Config{}, Fig10FailureConfig{}, Fig10LifecycleConfig{}, Fig11Config{}, Fig12Config{},
		Fig13Config{}, Fig14Config{}, Fig15Config{}, Table2Config{},
		workload.ArraySum{}, workload.Bank{}, workload.Gossip{}, workload.PredServe{}, workload.Retwis{},
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
		t.Errorf("parameter surface changed: new %q, gone %q", minus(got, want), minus(want, got))
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
