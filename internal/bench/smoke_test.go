package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSmokeFig10Failure(t *testing.T) {
	cfg := Fig10FailureQuick()
	cfg.Clients = 6
	cfg.KillAt, cfg.RestFor, cfg.VMSpinUp = 12e9, 10e9, 5e9
	cfg.RunFor = 40e9
	r := RunFig10Failure(cfg)
	t.Log(r.Print())
	if r.Pre.N == 0 || r.During.N == 0 || r.Post.N == 0 {
		t.Fatalf("empty phase: pre=%d during=%d post=%d", r.Pre.N, r.During.N, r.Post.N)
	}
	if r.Reexecutions == 0 {
		t.Fatal("no §4.5 re-execution visible in the failure run")
	}
	if len(r.Timeline) != 2 {
		t.Fatalf("fault timeline = %v", r.Timeline)
	}
	// The recovery spike must be visible in the bucketed timeline: the
	// requests in flight at the kill ride deadline + staleness + retry.
	if r.PeakBucketP99 < 10*r.Pre.Median {
		t.Fatalf("no recovery spike: peak bucket p99 %.1fms vs pre median %.1fms", r.PeakBucketP99, r.Pre.Median)
	}
	if r.Post.P99 > 3*r.Pre.Median {
		t.Fatalf("post-recovery latency did not settle: p99 %.1fms vs pre median %.1fms", r.Post.P99, r.Pre.Median)
	}
}

func TestSmokeFig10Lifecycle(t *testing.T) {
	r := RunFig10Lifecycle(Fig10LifecycleQuick())
	t.Log(r.Print())
	for _, run := range []LifecycleRun{r.Cold, r.Warm, r.Rolling} {
		if run.Completed == 0 {
			t.Fatalf("%s: no completed requests", run.Name)
		}
		if run.Failed != 0 {
			t.Errorf("%s: %d requests failed terminally", run.Name, run.Failed)
		}
	}
	if r.Warm.WarmFilled == 0 {
		t.Fatal("warm restart restored nothing from the peer cache")
	}
	// The acceptance floor: a warm replacement's recovery spike must be
	// at least 5x below the cold replacement's refault storm.
	if r.SpikeRatio < 5 {
		t.Fatalf("cold/warm recovery-spike ratio %.1fx, want >= 5x", r.SpikeRatio)
	}
	// A drained rolling upgrade must keep the per-second p99 bounded —
	// no refault storm, no deadline-riding stranded requests.
	if r.RollingPeakRatio > 3 {
		t.Fatalf("rolling-upgrade peak p99 is %.1fx steady, want <= 3x", r.RollingPeakRatio)
	}
	if len(r.Cold.Timeline) != 2 || len(r.Warm.Timeline) != 2 || len(r.Rolling.Timeline) != 1 {
		t.Fatalf("fault timelines: cold=%v warm=%v rolling=%v",
			r.Cold.Timeline, r.Warm.Timeline, r.Rolling.Timeline)
	}
}

// TestSmokeFig13 gates the PR-7 acceptance criterion: under the quick
// open-loop sweep the sharded scheduler group's saturation knee must
// sit at least 2x the single scheduler's on the same cluster, and the
// whole sweep must be deterministic under its fixed seed.
func TestSmokeFig13(t *testing.T) {
	cfg := Fig13Quick()
	r := RunFig13(cfg)
	t.Log(r.Print())
	if k := r.Knees[cfg.SchedulerCounts[0]]; k == 0 {
		t.Fatal("single-scheduler arm never met the knee criterion — sweep floor too high")
	}
	if r.KneeRatio < 2 {
		t.Fatalf("sharded/single knee ratio %.1fx, want >= 2x", r.KneeRatio)
	}
	for _, p := range r.Points {
		if p.Issued == 0 || p.Done == 0 {
			t.Fatalf("dead point %+v", p)
		}
	}

	// Determinism: a reduced sweep, run twice from scratch, must agree
	// on every field of every point.
	small := cfg
	small.SchedulerCounts = []int{1, 2}
	small.Loads = []float64{100, 250}
	small.Window = 2 * time.Second
	small.Drain = time.Second
	small.VMs = 3
	a, b := RunFig13(small), RunFig13(small)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fig13 not deterministic under fixed seed:\n a: %+v\n b: %+v", a, b)
	}
}

// TestFig13KneeLineForEveryArm: an arm that misses the knee criterion
// at every load still gets its knee entry, at 0, and its table line.
func TestFig13KneeLineForEveryArm(t *testing.T) {
	cfg := Fig13Quick()
	cfg.SchedulerCounts = []int{1, 4}
	cfg.Loads = []float64{1200}
	cfg.Window = 2 * time.Second
	r := RunFig13(cfg)
	if want := map[int]float64{1: 0, 4: 0}; !reflect.DeepEqual(r.Knees, want) {
		t.Fatalf("knees = %v, want %v", r.Knees, want)
	}
	out := r.Print()
	for _, line := range []string{"knee (1 scheduler): 0 req/s\n", "knee (4 schedulers): 0 req/s\n"} {
		if !strings.Contains(out, line) {
			t.Errorf("table lacks %q:\n%s", line, out)
		}
	}
}
