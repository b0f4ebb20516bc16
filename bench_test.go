package cloudburst_test

// One benchmark per table and figure of the paper's evaluation (§6).
// Each iteration runs the experiment's CI-scale configuration end to end
// on the virtual-time kernel and reports the headline simulated metrics
// via b.ReportMetric (sim-ms medians, sim-req/s throughputs, anomaly
// counts). The ns/op numbers measure the harness itself — the real time
// it takes to simulate the experiment — while the custom metrics carry
// the reproduced results. cmd/cb-bench runs the same experiments with
// the paper's full parameters and prints the tables; EXPERIMENTS.md
// records paper-vs-measured for every row.

import (
	"fmt"
	"runtime/debug"
	"testing"

	cloudburst "cloudburst"
	"cloudburst/internal/bench"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
)

// reportRows exports each system's median/p99 as benchmark metrics.
func reportRows(b *testing.B, rows []bench.Summary) {
	b.Helper()
	for _, s := range rows {
		b.ReportMetric(s.Median, "ms_median:"+metricName(s.Name))
	}
}

// freeMem returns the heap to the OS after an experiment; the paper
// benches boot and tear down whole clusters, and a full -bench=. sweep
// must fit small machines.
func freeMem(b *testing.B) { b.Cleanup(debug.FreeOSMemory) }

func metricName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ', r == '(', r == ')', r == '+':
			// skip
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkFig1Composition reproduces Figure 1: two-function composition
// latency across Cloudburst, Dask, SAND, Lambda variants, and Step
// Functions.
func BenchmarkFig1Composition(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunFig1(bench.Fig1Quick())
		reportRows(b, r.Rows)
	}
}

// BenchmarkFig5DataLocality reproduces Figure 5: the 10-array sum across
// cache-hot/cold Cloudburst and Lambda over Redis/S3.
func BenchmarkFig5DataLocality(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunFig5(bench.Fig5Quick())
		for _, row := range r.Rows {
			b.ReportMetric(row.Summary.Median, "ms_median:"+metricName(row.Summary.Name))
			if row.KVSReadRTT > 0 {
				// Cold-read fan-out: KVS read round trips per request
				// (the grouped multi-get collapses 10 per-key gets to
				// one per storage node).
				b.ReportMetric(row.KVSReadRTT, "kvsrt/req:"+metricName(row.Summary.Name))
			}
		}
	}
}

// BenchmarkFig6Aggregation reproduces Figure 6: gossip vs gather
// distributed aggregation.
func BenchmarkFig6Aggregation(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunFig6(bench.Fig6Quick())
		reportRows(b, r.Rows)
	}
}

// BenchmarkFig7Autoscaling reproduces Figure 7: the load-spike/drain
// timeline with replica pinning and node scaling.
func BenchmarkFig7Autoscaling(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunFig7(bench.Fig7Quick())
		b.ReportMetric(r.PeakThroughput, "simreq/s_peak")
		b.ReportMetric(float64(r.IndexMedianB), "B_index_median")
		b.ReportMetric(float64(r.IndexP99B), "B_index_p99")
	}
}

// BenchmarkFig8Consistency reproduces Figure 8: per-depth DAG latency
// under the five consistency levels.
func BenchmarkFig8Consistency(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunFig8(bench.Fig8Quick())
		for _, row := range r.Rows {
			b.ReportMetric(row.Summary.Median, "ms_median:"+metricName(row.Summary.Name))
			b.ReportMetric(row.Summary.P99, "ms_p99:"+metricName(row.Summary.Name))
		}
	}
}

// BenchmarkTable2Anomalies reproduces Table 2: anomalies flagged per
// consistency level over LWW executions.
func BenchmarkTable2Anomalies(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunTable2(bench.Table2Quick())
		b.ReportMetric(float64(r.Report.SK), "anomalies_SK")
		b.ReportMetric(float64(r.Report.MK), "anomalies_MK")
		b.ReportMetric(float64(r.Report.DSC), "anomalies_DSC")
		b.ReportMetric(float64(r.Report.DSRR), "anomalies_DSRR")
	}
}

// BenchmarkFig9PredictionServing reproduces Figure 9: the three-stage
// model pipeline across systems.
func BenchmarkFig9PredictionServing(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunFig9(bench.Fig9Quick())
		reportRows(b, r.Rows)
	}
}

// BenchmarkFig10PredictionScaling reproduces Figure 10: pipeline
// latency/throughput as worker threads scale.
func BenchmarkFig10PredictionScaling(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunFig10(bench.Fig10Quick())
		for _, row := range r.Rows {
			b.ReportMetric(row.Throughput, "simreq/s_"+metricName(row.Summary.Name))
		}
	}
}

// BenchmarkFig10PerformanceUnderFailure reproduces the §4.5 experiment:
// steady closed-loop DAG load with one executor VM killed mid-run and
// restarted, reporting p50/p99 before/during/after recovery plus the
// recovery spike and re-execution count.
func BenchmarkFig10PerformanceUnderFailure(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunFig10Failure(bench.Fig10FailureQuick())
		b.ReportMetric(r.Pre.Median, "ms_p50:pre")
		b.ReportMetric(r.Pre.P99, "ms_p99:pre")
		b.ReportMetric(r.During.Median, "ms_p50:during")
		b.ReportMetric(r.During.P99, "ms_p99:during")
		b.ReportMetric(r.Post.Median, "ms_p50:post")
		b.ReportMetric(r.Post.P99, "ms_p99:post")
		b.ReportMetric(r.PeakBucketP99, "ms_p99:recoveryspike")
		b.ReportMetric(float64(r.Reexecutions), "reexecs")
		b.ReportMetric(float64(r.Failed), "failedreqs")
	}
}

// BenchmarkFig10Lifecycle runs the state-lifecycle experiment: the same
// crash under steady closed-loop load recovered three ways — cold
// restart (refault storm), warm restart (peer cache handoff), and a
// drained rolling upgrade — reporting each recovery spike and the
// cold/warm ratio.
func BenchmarkFig10Lifecycle(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunFig10Lifecycle(bench.Fig10LifecycleQuick())
		b.ReportMetric(r.Cold.Steady.P99, "ms_p99:steady")
		b.ReportMetric(r.Cold.SpikeP99, "ms_p99:coldspike")
		b.ReportMetric(r.Warm.SpikeP99, "ms_p99:warmspike")
		b.ReportMetric(r.SpikeRatio, "x_coldoverwarm")
		b.ReportMetric(r.Rolling.SpikeP99, "ms_p99:rollingpeak")
		b.ReportMetric(r.RollingPeakRatio, "x_rollingoversteady")
		b.ReportMetric(float64(r.Warm.WarmFilled), "warmfilledkeys")
		b.ReportMetric(float64(r.Cold.Failed+r.Warm.Failed+r.Rolling.Failed), "failedreqs")
	}
}

// BenchmarkFig11Retwis reproduces Figure 11: Retwis on Cloudburst
// LWW/causal vs serverful Redis, with anomaly rates.
func BenchmarkFig11Retwis(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunFig11(bench.Fig11Quick())
		for _, row := range r.Rows {
			b.ReportMetric(row.Summary.Median, "ms_median:"+metricName(row.Summary.Name))
			b.ReportMetric(row.AnomalyRate*100, "pct_anomaly:"+metricName(row.Summary.Name))
		}
	}
}

// BenchmarkFig12RetwisScaling reproduces Figure 12: Retwis throughput
// scaling in causal mode.
func BenchmarkFig12RetwisScaling(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunFig12(bench.Fig12Quick())
		for _, row := range r.Rows {
			b.ReportMetric(row.ThroughputKOp*1000, "simops/s_"+metricName(row.Summary.Name))
		}
	}
}

// BenchmarkFig13Saturation runs the open-loop saturation sweep: offered
// load × scheduler-group size, with the partitioned monitor on in the
// sharded arms. The knees are the headline — the sharded knee must hold
// a multiple of the single scheduler's.
func BenchmarkFig13Saturation(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		cfg := bench.Fig13Quick()
		r := bench.RunFig13(cfg)
		base := cfg.SchedulerCounts[0]
		b.ReportMetric(r.Knees[base], "simreq/s_knee1")
		for _, n := range cfg.SchedulerCounts[1:] {
			b.ReportMetric(r.Knees[n], fmt.Sprintf("simreq/s_knee%d", n))
		}
		b.ReportMetric(r.KneeRatio, "x_knee_ratio")
	}
}

// BenchmarkFig15Txn runs the transactional-commit figure: the bank
// workload across all six consistency modes plus the kill/restart panel
// in Transactional mode. The headline metrics are the Txn row's commit
// latency and abort rate and the failure panel's sum drift (atomicity
// through a coordinator crash — must stay 0) and in-doubt count.
func BenchmarkFig15Txn(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunFig15(bench.Fig15Quick())
		for _, row := range r.Rows {
			b.ReportMetric(row.Summary.Median, "ms_median:"+metricName(row.Summary.Name))
			if row.Summary.Name == "Txn" {
				b.ReportMetric(row.AbortPct*100, "pct_abort:Txn")
				b.ReportMetric(float64(row.SumDrift), "sumdrift:Txn")
			}
		}
		b.ReportMetric(float64(r.Failure.SumDrift), "sumdrift:failure")
		b.ReportMetric(float64(r.Failure.InDoubt), "indoubt:failure")
		b.ReportMetric(r.Failure.During.P99, "ms_p99:during")
	}
}

// BenchmarkAblationLocalityScheduling quantifies the §4.3 design choice:
// locality-aware executor picks vs random placement on the Figure 5 hot
// workload.
// BenchmarkFig14Breakdown runs the critical-path breakdown figure: four
// traced scenarios (hot/cold reads, the fig10 recovery spike, a fig13
// past-knee cell) analyzed into per-category p99 shares. The reported
// metrics are the two gated attributions — both must stay ≥ 0.95 — and
// the knee's queue share (its diagnosis).
func BenchmarkFig14Breakdown(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunFig14(bench.Fig14Quick())
		for _, row := range r.Rows {
			switch row.Scenario {
			case "spike":
				b.ReportMetric(row.P99.Attributed(), "frac_attr_spike_p99")
			case "knee":
				b.ReportMetric(row.P99.Attributed(), "frac_attr_knee_p99")
				_, share := row.P99.Dominant()
				b.ReportMetric(share, "frac_queue_knee_p99")
			}
		}
	}
}

func BenchmarkAblationLocalityScheduling(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunAblationLocality(bench.AblationQuick())
		b.ReportMetric(r.Locality.Median, "ms_median:locality")
		b.ReportMetric(r.Random.Median, "ms_median:random")
	}
}

// BenchmarkAblationCaching quantifies the co-located cache itself:
// normal caches vs forced misses on every read.
func BenchmarkAblationCaching(b *testing.B) {
	freeMem(b)
	for i := 0; i < b.N; i++ {
		r := bench.RunAblationCaching(bench.AblationQuick())
		b.ReportMetric(r.Cached.Median, "ms_median:cached")
		b.ReportMetric(r.Uncached.Median, "ms_median:uncached")
	}
}

// BenchmarkSingleInvocation measures the end-to-end single-function hot
// path (client → scheduler → executor → client) per invocation.
func BenchmarkSingleInvocation(b *testing.B) {
	cfg := cloudburst.DefaultConfig()
	c := cloudburst.NewCluster(cfg)
	defer c.Close()
	if err := c.RegisterFunction("nop", func(ctx *cloudburst.Ctx, args []any) (any, error) { return 1, nil }); err != nil {
		b.Fatal(err)
	}
	c.Run(func(cl *cloudburst.Client) { cl.Sleep(3e9) })
	b.ResetTimer()
	c.Run(func(cl *cloudburst.Client) {
		for i := 0; i < b.N; i++ {
			if _, err := cl.Invoke("nop", nil).Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDAGInvocation measures the two-function DAG hot path per
// request.
func BenchmarkDAGInvocation(b *testing.B) {
	cfg := cloudburst.DefaultConfig()
	c := cloudburst.NewCluster(cfg)
	defer c.Close()
	if err := c.RegisterFunction("a", func(ctx *cloudburst.Ctx, args []any) (any, error) { return 1, nil }); err != nil {
		b.Fatal(err)
	}
	if err := c.RegisterFunction("bb", func(ctx *cloudburst.Ctx, args []any) (any, error) { return 2, nil }); err != nil {
		b.Fatal(err)
	}
	if err := c.RegisterDAG(cloudburst.LinearDAG("ab", "a", "bb"), 1); err != nil {
		b.Fatal(err)
	}
	c.Run(func(cl *cloudburst.Client) { cl.Sleep(3e9) })
	b.ResetTimer()
	c.Run(func(cl *cloudburst.Client) {
		for i := 0; i < b.N; i++ {
			if _, err := cl.InvokeDAG("ab", nil).Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCodecStructRoundTrip measures the reflection-free struct
// codec on the wire shapes the control plane publishes every metrics
// interval (an executor report and a scheduler report). Each b.N
// iteration performs 1000 encode+decode round trips of both so the
// -benchtime=1x rows bench.sh records carry a stable ns/op for the perf
// gate; allocs/op is the authoritative signal.
func BenchmarkCodecStructRoundTrip(b *testing.B) {
	em := core.ExecutorMetrics{
		Thread: "exec-vm0-1", VM: "vm0", Utilization: 0.73,
		Pinned: []string{"rt-timeline", "rt-post"}, Completed: 912,
		AvgLatencyS: 0.041, ReportedAtS: 12.5,
	}
	sm := core.SchedulerMetrics{
		Scheduler:   "sched-0",
		DAGCalls:    map[string]int64{"rt": 4096, "pred": 128},
		FnCalls:     map[string]int64{"rt-timeline": 3686, "rt-post": 410, "done/rt": 4095},
		ReportedAtS: 12.5,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			if got := codec.MustDecode(codec.MustEncode(em)).(core.ExecutorMetrics); got.Completed != em.Completed {
				b.Fatal("executor metrics round trip corrupted")
			}
			if got := codec.MustDecode(codec.MustEncode(sm)).(core.SchedulerMetrics); got.FnCalls["rt-timeline"] != 3686 {
				b.Fatal("scheduler metrics round trip corrupted")
			}
		}
	}
}
