package bench

import (
	"strings"
	"testing"
	"time"

	"cloudburst/internal/parallel"
	"cloudburst/internal/trace"
)

// fig14Reduced is a cheaper-than-Quick config the determinism tests
// rerun several times.
func fig14Reduced() Fig14Config {
	cfg := Fig14Quick()
	cfg.ReadTrials = 6
	cfg.Spike.Clients = 4
	cfg.Spike.RunFor = 30 * time.Second
	cfg.Knee.Window, cfg.Knee.Drain = 2*time.Second, time.Second
	return cfg
}

// TestFig14Attribution is the figure's acceptance gate: the analyzer
// must explain at least 95% of the p99 request's wall time for the
// fig10 recovery spike and the fig13 saturation knee — the two
// scenarios whose diverging tails the figure exists to attribute.
func TestFig14Attribution(t *testing.T) {
	res := RunFig14(Fig14Quick())
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Traces == 0 {
			t.Errorf("%s: no traces collected", row.Scenario)
		}
		if row.Scenario != "spike" && row.Scenario != "knee" {
			continue
		}
		if att := row.P99.Attributed(); att < 0.95 {
			t.Errorf("%s: p99 attribution %.1f%%, want >= 95%%", row.Scenario, 100*att)
		}
	}
	// Past the knee the offered load exceeds one scheduler's dispatch
	// capacity, so the p99 must be queue-dominated — that is the
	// figure's diagnosis of fig13's divergence.
	knee := res.Rows[3]
	if cat, share := knee.P99.Dominant(); cat != trace.Queue || share < 0.5 {
		t.Errorf("knee p99 dominant = %s %.0f%%, want queue majority", cat, 100*share)
	}
	if len(res.Chrome) == 0 {
		t.Error("knee scenario exported no Chrome trace")
	}
	if !strings.Contains(string(res.Chrome), `"ph":"X"`) {
		t.Error("Chrome export has no complete events")
	}
}

// TestParallelFig14Deterministic extends the parallel-runner contract
// to the exported Chrome trace-event JSON: it must be byte-identical
// between a serial run and a width-4 run of the same seed
// (TestExperiments holds the rendered breakdown to the same).
func TestParallelFig14Deterministic(t *testing.T) {
	chrome := func(width int) string {
		defer parallel.SetWidth(parallel.SetWidth(width))
		return string(RunFig14(fig14Reduced()).Chrome)
	}
	if chrome(1) != chrome(4) {
		t.Error("fig14: the Chrome trace at width 4 differs from the serial one")
	}
}

// TestFig14TraceExportDeterministic is the same-seed rerun half of the
// determinism gate: two independent runs must export byte-identical
// trace JSON (span order, virtual timestamps, trace IDs — everything).
func TestFig14TraceExportDeterministic(t *testing.T) {
	cfg := fig14Reduced()
	a := RunFig14(cfg)
	b := RunFig14(cfg)
	if string(a.Chrome) != string(b.Chrome) {
		t.Error("same seed exported different Chrome trace JSON across runs")
	}
	if a.Print() != b.Print() {
		t.Error("same seed rendered different breakdown tables across runs")
	}
}
