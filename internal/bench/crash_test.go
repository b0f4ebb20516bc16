package bench

import (
	"reflect"
	"testing"
	"time"
)

// synthLoad is a crash run's load without a cluster: the load starts at
// 100s, the victim dies at 110s, restarts at 115s and its replacement
// joins at 118s; the load runs for 20s.
func synthLoad(samples []crashSample, failed ...time.Duration) crashLoad {
	return crashLoad{
		Crash:   Crash{KillAt: 10 * time.Second, RestFor: 5 * time.Second, VMSpinUp: 3 * time.Second, RunFor: 20 * time.Second},
		start:   100 * time.Second,
		samples: samples,
		failed:  failed,
	}
}

// TestCrashPhasesAtTheirEdges: a request completing exactly at the kill
// counts as during the failure, one completing exactly at the recovery
// as after it, as fig10-failure and fig15-txn have always split them.
func TestCrashPhasesAtTheirEdges(t *testing.T) {
	const ms = time.Millisecond
	l := synthLoad([]crashSample{
		{at: 110*time.Second - 1, lat: 1 * ms},
		{at: 110 * time.Second, lat: 2 * ms},
		{at: 118*time.Second - 1, lat: 2 * ms},
		{at: 118 * time.Second, lat: 3 * ms},
	})
	if l.killAt() != 110*time.Second || l.recoverAt() != 118*time.Second {
		t.Fatalf("kill at %v, recovery at %v; want 110s and 118s", l.killAt(), l.recoverAt())
	}
	pre, during, post := l.phases()
	for _, c := range []struct {
		got      Summary
		name     string
		n        int
		medianMS float64
	}{
		{pre, "pre-failure", 1, 1},
		{during, "during-failure", 2, 2},
		{post, "post-recovery", 1, 3},
	} {
		if c.got.Name != c.name || c.got.N != c.n || c.got.Median != c.medianMS {
			t.Errorf("%s: got %q with n=%d median %.0fms, want n=%d median %.0fms",
				c.name, c.got.Name, c.got.N, c.got.Median, c.n, c.medianMS)
		}
	}
}

// TestCrashTimelineBuckets: the timeline has one bucket per second that
// saw a completion or a failure within the first RunFor (a second with
// failures only included), and the peak p99 reads only the buckets that
// start inside its window: [from, to) holds the bucket starting at from
// and not the one starting at to.
func TestCrashTimelineBuckets(t *testing.T) {
	const ms = time.Millisecond
	l := synthLoad([]crashSample{
		{at: 100*time.Second + 500*ms, lat: 5 * ms},    // second 0
		{at: 109*time.Second + 999*ms, lat: 900 * ms},  // second 9, before the window
		{at: 110 * time.Second, lat: 40 * ms},          // second 10, the window's first
		{at: 111*time.Second + 200*ms, lat: 60 * ms},   // second 11
		{at: 118 * time.Second, lat: 700 * ms},         // second 18, where the window ends
		{at: 121*time.Second + 500*ms, lat: 800 * ms},  // second 21, past RunFor
		{at: 111*time.Second + 700*ms, lat: 50 * ms},   // second 11
		{at: 100*time.Second + 100*ms, lat: 7 * ms},    // second 0
		{at: 120*time.Second + 999*ms, lat: 10 * ms},   // second 20, RunFor's last
		{at: 105*time.Second + 300*ms, lat: 1000 * ms}, // second 5, before the window
	}, 113*time.Second+400*ms, 111*time.Second)

	buckets, peak := l.timeline(l.killAt(), l.recoverAt())
	want := []Fig10Bucket{
		{AtS: 0, N: 2, P50: 5, P99: 5},
		{AtS: 5, N: 1, P50: 1000, P99: 1000},
		{AtS: 9, N: 1, P50: 900, P99: 900},
		{AtS: 10, N: 1, P50: 40, P99: 40},
		{AtS: 11, N: 2, P50: 50, P99: 50, Errs: 1},
		{AtS: 13, Errs: 1},
		{AtS: 18, N: 1, P50: 700, P99: 700},
		{AtS: 20, N: 1, P50: 10, P99: 10},
	}
	if !reflect.DeepEqual(buckets, want) {
		t.Errorf("buckets:\n got %+v\nwant %+v", buckets, want)
	}
	if peak != 50 {
		t.Errorf("peak p99 in [110s, 118s) = %.0fms, want 50 (seconds 10 and 11 only)", peak)
	}
	if _, peak := l.timeline(l.start+9*time.Second, l.start+10*time.Second); peak != 900 {
		t.Errorf("peak p99 in [109s, 110s) = %.0fms, want 900 (second 9 only)", peak)
	}
	if _, peak := l.timeline(l.start+12*time.Second, l.start+18*time.Second); peak != 0 {
		t.Errorf("peak p99 in [112s, 118s) = %.0fms, want 0 (no completions there)", peak)
	}
}
