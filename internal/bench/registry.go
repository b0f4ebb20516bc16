package bench

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Experiment is one table or figure of the evaluation. cmd/cb-bench
// runs it, scripts/tablediff.sh compares its bytes across commits, and
// the package tests check it renders the same at every runner width
// with tracing on or off.
type Experiment struct {
	Name  string
	About string
	// Run renders the table at the quick configuration, or at the
	// paper's when full. A non-nil tweak must be a func(*C) over the
	// experiment's config type C and edits the config before the run.
	Run func(full bool, tweak any) string
}

// Experiments is every experiment, in the order cb-bench runs them.
var Experiments = []Experiment{
	experiment("fig1", "function composition latency across systems (§6.1.1)", Fig1Quick, Fig1Paper, RunFig1),
	experiment("fig5", "data locality: sum of 10 arrays, 80KB-80MB (§6.1.2)", Fig5Quick, Fig5Paper, RunFig5),
	experiment("fig6", "distributed aggregation: gossip vs gather (§6.1.3)", Fig6Quick, Fig6Paper, RunFig6),
	experiment("fig7", "autoscaling timeline under a load spike (§6.1.4)", Fig7Quick, Fig7Paper, RunFig7),
	experiment("fig8", "consistency-model latency overheads (§6.2.1)", Fig8Quick, Fig8Paper, RunFig8),
	experiment("table2", "anomalies flagged per consistency level (§6.2.2)", Table2Quick, Table2Paper, RunTable2),
	experiment("fig9", "prediction-serving pipeline latency (§6.3.1)", Fig9Quick, Fig9Paper, RunFig9),
	experiment("fig10", "prediction-serving scaling (§6.3.1)", Fig10Quick, Fig10Paper, RunFig10),
	experiment("fig10-failure", "performance under failure: VM crash + restart (§4.5)", Fig10FailureQuick, Fig10FailurePaper, RunFig10Failure),
	experiment("lifecycle", "state lifecycle: cold vs warm recovery, rolling upgrade (§4.5)", Fig10LifecycleQuick, Fig10LifecyclePaper, RunFig10Lifecycle),
	experiment("chaos", "chaos matrix: workloads × consistency modes × randomized fault plans", ChaosQuick, ChaosFull, RunChaosMatrix),
	experiment("fig11", "Retwis latency and anomaly rates (§6.3.2)", Fig11Quick, Fig11Paper, RunFig11),
	experiment("fig12", "Retwis causal-mode scaling (§6.3.2)", Fig12Quick, Fig12Paper, RunFig12),
	experiment("fig13-saturation", "open-loop saturation: offered load × scheduler-group size (§3.2)", Fig13Quick, Fig13Paper, RunFig13),
	experiment("fig15-txn", "transactional commit: latency, abort rate, atomicity under failure", Fig15Quick, Fig15Paper, RunFig15),
	experiment("fig14-breakdown", "critical-path latency breakdown from the tracing plane", Fig14Quick, Fig14Paper, RunFig14),
	experiment("ablation-locality", "locality-aware vs random scheduling (§4.3)", AblationQuick, AblationQuick, RunAblationLocality),
	experiment("ablation-caching", "co-located cache on vs off (LDPC, §2.2)", AblationQuick, AblationQuick, RunAblationCaching),
}

// experiment binds a figure's quick config, paper config and runner.
func experiment[C any, R interface{ Print() string }](name, about string, quick, paper func() C, run func(C) R) Experiment {
	return Experiment{Name: name, About: about, Run: func(full bool, tweak any) string {
		cfg := quick()
		if full {
			cfg = paper()
		}
		if tweak != nil {
			tweak.(func(*C))(&cfg)
		}
		return run(cfg).Print()
	}}
}

// Lookup returns the named experiments in registry order; the name
// "all" selects every one. Any unknown name is an error that lists it.
func Lookup(names ...string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[strings.TrimSpace(n)] = true
	}
	var out []Experiment
	for _, e := range Experiments {
		if want["all"] || want[e.Name] {
			out = append(out, e)
		}
		delete(want, e.Name)
	}
	delete(want, "all")
	if len(want) > 0 {
		return nil, fmt.Errorf("unknown experiments: %s", strings.Join(slices.Sorted(maps.Keys(want)), ", "))
	}
	return out, nil
}
