package bench

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	cb "cloudburst"
	"cloudburst/internal/parallel"
)

// reduced is, per experiment, the config edit that makes its quick
// configuration cheap enough to run twice here. Every registry entry
// needs one: an experiment without it fails TestExperiments.
var reduced = map[string]any{
	"fig1": func(c *Fig1Config) { c.Trials = 15 },
	"fig5": func(c *Fig5Config) { c.Clients, c.Trials, c.Elems = 2, 3, []int{1000, 10000} },
	"fig6": func(c *Fig6Config) { c.Rounds = 6 },
	"fig7": func(c *Fig7Config) {
		c.InitialVMs, c.Clients, c.Keys, c.ScaleUpVMs = 4, 20, 5000, 2
		c.LoadFor, c.DrainFor, c.VMSpinUp = 45*time.Second, 20*time.Second, 10*time.Second
	},
	"fig8":   func(c *Fig8Config) { c.Clients, c.Requests, c.DAGs = 2, 8, 12 },
	"table2": func(c *Table2Config) { c.Fig8.Keys, c.Fig8.DAGs, c.Executions = 500, 15, 200 },
	"fig9":   func(c *Fig9Config) { c.Trials = 15 },
	"fig10":  func(c *Fig10Config) { c.Requests = 5 },
	"fig10-failure": func(c *Fig10FailureConfig) {
		c.VMs, c.Clients = 3, 6
		c.KillAt, c.RestFor, c.VMSpinUp, c.RunFor = 12*time.Second, 10*time.Second, 5*time.Second, 40*time.Second
	},
	"lifecycle": func(c *Fig10LifecycleConfig) {
		c.Clients, c.Keys, c.ValueBytes = 3, 6, 1<<20
		c.KillAt, c.RestFor, c.VMSpinUp = 6*time.Second, 3*time.Second, 3*time.Second
		c.RunFor, c.SpikeWin = 20*time.Second, 6*time.Second
	},
	"chaos": func(c *ChaosConfig) {
		c.Workloads, c.Modes, c.Requests, c.Lifecycle = []string{"retwis", "gossip"}, AllModes[:2], 3, false
	},
	"fig11": func(c *Fig11Config) { c.Clients, c.Requests = 3, 15 },
	"fig12": func(c *Fig12Config) { c.Threads, c.Requests = []int{4, 8}, 10 },
	"fig13-saturation": func(c *Fig13Config) {
		c.Loads, c.Window, c.Drain = []float64{150, 600}, 2*time.Second, time.Second
	},
	"fig15-txn":         func(c *Fig15Config) { c.Clients, c.Requests, c.RunFor = 2, 10, 30*time.Second },
	"fig14-breakdown":   func(c *Fig14Config) { *c = fig14Reduced() },
	"ablation-locality": func(c *AblationConfig) { c.Clients, c.Trials, c.Elems = 2, 3, 20_000 },
	"ablation-caching":  func(c *AblationConfig) { c.Clients, c.Trials, c.Elems = 2, 3, 20_000 },
}

// verdicts holds each experiment's last widthAndTraceDiff result, so the
// per-figure test names below reuse TestExperiments' runs ("" = same).
var verdicts = map[string]string{}

// TestExperiments is two contracts, checked on every registry entry.
// The parallel runner's: fanning a figure's independent cells across
// workers changes wall time and nothing else, since every cell boots its
// own kernel from its own seed and results aggregate by cell index. The
// tracer's: tracing rides in-process call paths only (no wire struct
// gains a byte, no component sleeps or draws randomness for it), so a
// traced simulation makes the same decisions as an untraced one. Each
// experiment's reduced config runs serially untraced, then at width 4
// traced, and the two tables must be the same non-empty bytes. On one
// core width 4 still interleaves the cells, so a cross-kernel leak (a
// shared rng, a global counter, a pooled buffer written twice) shows up
// here before it corrupts a real many-core run.
func TestExperiments(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			delete(verdicts, e.Name)
			sameAtEveryWidth(t, e.Name)
		})
	}
	for name := range reduced {
		if _, err := Lookup(name); err != nil {
			t.Errorf("reduced config for %v", err)
		}
	}
}

// widthAndTraceDiff runs e's reduced config both ways and describes
// how the tables differ, or returns "" when they are the same.
func widthAndTraceDiff(e Experiment) string {
	tweak, ok := reduced[e.Name]
	if !ok {
		return e.Name + ": no reduced config in registry_test.go"
	}
	defer parallel.SetWidth(parallel.SetWidth(1))
	serial := e.Run(false, tweak)
	parallel.SetWidth(4)
	cb.SetDefaultTracing(true)
	defer cb.SetDefaultTracing(false)
	traced := e.Run(false, tweak)
	switch {
	case serial == "":
		return e.Name + ": empty table"
	case serial != traced:
		return fmt.Sprintf("%s: table at width 4 with tracing on differs from the serial untraced one\n--- width 1, untraced ---\n%s\n--- width 4, traced ---\n%s",
			e.Name, serial, traced)
	}
	return ""
}

// sameAtEveryWidth fails t if experiment name's table moves with the
// runner width or with tracing, reusing a verdict already reached.
func sameAtEveryWidth(t *testing.T, name string) {
	if _, ok := verdicts[name]; !ok {
		exps, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		verdicts[name] = widthAndTraceDiff(exps[0])
	}
	if v := verdicts[name]; v != "" {
		t.Error(v)
	}
}

// The per-figure names the table replaced, kept so each one's test
// history continues; each is its experiment's row of TestExperiments.
func TestSmokeFig1(t *testing.T)                     { sameAtEveryWidth(t, "fig1") }
func TestSmokeFig5(t *testing.T)                     { sameAtEveryWidth(t, "fig5") }
func TestSmokeFig6(t *testing.T)                     { sameAtEveryWidth(t, "fig6") }
func TestSmokeFig7(t *testing.T)                     { sameAtEveryWidth(t, "fig7") }
func TestSmokeFig8(t *testing.T)                     { sameAtEveryWidth(t, "fig8") }
func TestSmokeTable2(t *testing.T)                   { sameAtEveryWidth(t, "table2") }
func TestSmokeFig9(t *testing.T)                     { sameAtEveryWidth(t, "fig9") }
func TestSmokeFig10(t *testing.T)                    { sameAtEveryWidth(t, "fig10") }
func TestSmokeFig11(t *testing.T)                    { sameAtEveryWidth(t, "fig11") }
func TestSmokeFig12(t *testing.T)                    { sameAtEveryWidth(t, "fig12") }
func TestParallelFig1Deterministic(t *testing.T)     { sameAtEveryWidth(t, "fig1") }
func TestParallelFig5Deterministic(t *testing.T)     { sameAtEveryWidth(t, "fig5") }
func TestParallelFig8Deterministic(t *testing.T)     { sameAtEveryWidth(t, "fig8") }
func TestParallelFig11Deterministic(t *testing.T)    { sameAtEveryWidth(t, "fig11") }
func TestParallelFig12Deterministic(t *testing.T)    { sameAtEveryWidth(t, "fig12") }
func TestParallelFig13Deterministic(t *testing.T)    { sameAtEveryWidth(t, "fig13-saturation") }
func TestParallelAblationDeterministic(t *testing.T) { sameAtEveryWidth(t, "ablation-caching") }
func TestParallelChaosDeterministic(t *testing.T)    { sameAtEveryWidth(t, "chaos") }
func TestFig5ByteIdenticalTraced(t *testing.T)       { sameAtEveryWidth(t, "fig5") }
func TestFig10ByteIdenticalTraced(t *testing.T)      { sameAtEveryWidth(t, "fig10-failure") }
func TestFig13ByteIdenticalTraced(t *testing.T)      { sameAtEveryWidth(t, "fig13-saturation") }

func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.Name] {
			t.Errorf("experiment %q registered twice", e.Name)
		}
		seen[e.Name] = true
	}
}

func TestLookup(t *testing.T) {
	names := func(exps []Experiment) []string {
		var out []string
		for _, e := range exps {
			out = append(out, e.Name)
		}
		return out
	}
	all, err := Lookup("all")
	if err != nil || !slices.Equal(names(all), names(Experiments)) {
		t.Errorf("Lookup(all) = %v, %v; want the registry in order", names(all), err)
	}
	// Registry order, not argument order; duplicates and spaces collapse.
	got, err := Lookup("fig11", " fig5", "fig11")
	if err != nil || !slices.Equal(names(got), []string{"fig5", "fig11"}) {
		t.Errorf("Lookup(fig11, fig5, fig11) = %v, %v; want [fig5 fig11]", names(got), err)
	}
	_, err = Lookup("fig5", "nope", "fig99")
	if err == nil || !strings.Contains(err.Error(), "fig99, nope") {
		t.Errorf("Lookup with unknown names: err = %v, want it to list fig99, nope", err)
	}
}
