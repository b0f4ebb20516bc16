package traffic

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"cloudburst/internal/core"
	"cloudburst/internal/scheduler"
	"cloudburst/internal/simnet"
	"cloudburst/internal/trace"
	"cloudburst/internal/vtime"
)

// drawOffsets materializes the first n arrivals of a stream.
func drawOffsets(a *Poisson, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = a.Next()
	}
	return out
}

// TestGeneratorsDeterministic: the same seed yields byte-identical
// streams across independent generator instances, for the arrival
// stream and for the selectors.
func TestGeneratorsDeterministic(t *testing.T) {
	a, b := drawOffsets(NewPoisson(7, 500), 5000), drawOffsets(NewPoisson(7, 500), 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("poisson: same seed produced different streams")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("poisson: offsets not monotone at %d: %v < %v", i, a[i], a[i-1])
		}
	}

	z1, z2 := NewZipfKeys(3, 1.3, 1000, "k"), NewZipfKeys(3, 1.3, 1000, "k")
	m1, m2 := NewMix(5, 7, 3), NewMix(5, 7, 3)
	for i := 0; i < 5000; i++ {
		if z1.Next() != z2.Next() {
			t.Fatalf("zipf: same seed diverged at draw %d", i)
		}
		if m1.Next() != m2.Next() {
			t.Fatalf("mix: same seed diverged at draw %d", i)
		}
	}
}

// TestPoissonInterArrivalMean: over 50k arrivals at 1000 req/s the
// empirical mean inter-arrival time is within 2% of 1ms.
func TestPoissonInterArrivalMean(t *testing.T) {
	const rate, n = 1000.0, 50000
	offs := drawOffsets(NewPoisson(11, rate), n)
	mean := offs[n-1].Seconds() / float64(n)
	want := 1 / rate
	if err := math.Abs(mean-want) / want; err > 0.02 {
		t.Fatalf("mean inter-arrival %.6fs, want %.6fs ±2%% (err %.1f%%)", mean, want, err*100)
	}
}

// TestZipfHeadFrequency: the hottest key's empirical frequency matches
// the closed form P(0) = 1 / Σ_{k=0}^{n-1} (1+k)^(-s) (Go's rand.Zipf
// convention) within 5%.
func TestZipfHeadFrequency(t *testing.T) {
	const s, n, draws = 1.3, 1000, 200000
	z := NewZipfKeys(13, s, n, "h")
	head := 0
	for i := 0; i < draws; i++ {
		if z.Next() == "h0" {
			head++
		}
	}
	var norm float64
	for k := 0; k < n; k++ {
		norm += math.Pow(1+float64(k), -s)
	}
	want := 1 / norm
	got := float64(head) / draws
	if err := math.Abs(got-want) / want; err > 0.05 {
		t.Fatalf("head frequency %.4f, want %.4f ±5%% (err %.1f%%)", got, want, err*100)
	}
}

// TestHistogramQuantiles: quantiles land on the right bucket bound and
// the overflow bucket reports the exact maximum.
func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(time.Millisecond, 2, 10)
	for i := 0; i < 99; i++ {
		h.Observe(1500 * time.Microsecond) // bucket (1ms, 2ms]
	}
	h.Observe(3 * time.Second) // overflow
	if got := h.Quantile(0.50); got != 2*time.Millisecond {
		t.Fatalf("p50 = %v, want 2ms", got)
	}
	if got := h.Quantile(0.999); got != 3*time.Second {
		t.Fatalf("p99.9 = %v, want the exact max 3s", got)
	}
	if h.n != 100 {
		t.Fatalf("count = %d, want 100", h.n)
	}
}

// TestRecorderWindow: a recorder's histogram holds exactly its successful
// latencies, and Sustained reads the rate off the per-second timeline.
func TestRecorderWindow(t *testing.T) {
	k := vtime.NewKernel(1)
	t.Cleanup(k.Stop)
	want := NewHistogram(100*time.Microsecond, 1.05, 284)
	var rec *Recorder
	k.Run("rec", func() {
		rec = NewRecorder(k)
		i := 0
		for _, n := range []int{10, 20, 0, 5} {
			for range n {
				i++
				d := time.Duration(i) * 37 * time.Millisecond
				rec.Observe(d, true)
				want.Observe(d)
			}
			rec.Observe(time.Hour, false) // a failure counts, but not its latency
			k.Sleep(time.Second)
		}
	})
	if rec.Done != 35 || rec.Failed != 4 {
		t.Fatalf("done %d failed %d, want 35 and 4", rec.Done, rec.Failed)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := rec.Hist.Quantile(q); got != want.Quantile(q) {
			t.Fatalf("q%.2f: recorder %v, histogram %v", q, got, want.Quantile(q))
		}
	}
	if s := rec.Sustained(2 * time.Second); s != 15 {
		t.Fatalf("sustained over 2s = %v, want 15", s)
	}
}

// routeTo sends every request to one scheduler endpoint.
type routeTo simnet.NodeID

func (r routeTo) RouteScheduler(string, int) simnet.NodeID { return simnet.NodeID(r) }

// TestPoolSendsDAGArgsInNameOrder generates DAG requests whose argument
// lists come in reverse name order and checks that every request the
// scheduler receives carries them sorted by function name, the order
// core.ArgsFor searches, and that each one completes.
func TestPoolSendsDAGArgsInNameOrder(t *testing.T) {
	k := vtime.NewKernel(1)
	t.Cleanup(k.Stop)
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(100 * time.Microsecond)})
	sched := net.AddNode("sched-0")
	var got [][]string
	k.Go("sched", func() {
		for {
			m := sched.Recv()
			req := m.Payload.(*scheduler.DAGInvokeReq)
			var fns []string
			for _, fa := range req.Args {
				fns = append(fns, fa.Fn)
			}
			got = append(got, fns)
			sched.Send(req.RespondTo, &core.Result{ReqID: req.ReqID}, 48)
		}
	})
	p := NewPool(k, routeTo(sched.ID()), []*simnet.Endpoint{net.AddNode("pool-0"), net.AddNode("pool-1")}, Spec{
		Name:     "dag-args",
		Arrivals: NewPoisson(3, 200),
		Window:   time.Second,
		Drain:    time.Second,
		Next: func(int64) Invocation {
			return Invocation{DAG: "d", DAGArgs: []core.FnArgs{
				{Fn: "c", Args: []core.Arg{{Val: []byte{3}}}},
				{Fn: "b", Args: []core.Arg{{Ref: "k"}}},
				{Fn: "a"},
			}}
		},
	})
	var rec *Recorder
	k.Run("pool", func() { rec = p.Run() })
	if len(got) < 100 || rec.Lost != 0 {
		t.Fatalf("%d requests reached the scheduler, %d lost; want ≥ 100 and 0", len(got), rec.Lost)
	}
	for i, fns := range got {
		if !slices.Equal(fns, []string{"a", "b", "c"}) {
			t.Fatalf("request %d carried its arguments for %v, want [a b c]", i, fns)
		}
	}
}

// TestPoolTraceAccounting runs a traced pool against a scheduler that
// answers some requests, fails some and never answers the rest, and
// checks that every terminal result finishes its trace and every lost
// request, whether the reaper or the drain gave up on it, drops its own.
func TestPoolTraceAccounting(t *testing.T) {
	k := vtime.NewKernel(1)
	t.Cleanup(k.Stop)
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(100 * time.Microsecond)})
	sched := net.AddNode("sched-0")
	k.Go("sched", func() {
		for n := 0; ; n++ {
			req := sched.Recv().Payload.(*core.InvokeRequest)
			switch n % 5 {
			case 0: // silent: the request ends Lost
			case 1:
				sched.Send(req.RespondTo, &core.Result{ReqID: req.ReqID, Err: "boom"}, 48)
			default:
				sched.Send(req.RespondTo, &core.Result{ReqID: req.ReqID}, 48)
			}
		}
	})
	col := trace.New()
	p := NewPool(k, routeTo(sched.ID()), []*simnet.Endpoint{net.AddNode("pool-0")}, Spec{
		Name:        "traced",
		Arrivals:    NewPoisson(5, 200),
		Window:      time.Second,
		RetryAfter:  300 * time.Millisecond,
		MaxAttempts: 1,
		Drain:       100 * time.Millisecond,
		Next:        func(int64) Invocation { return Invocation{Function: "f"} },
		Trace:       col,
	})
	var rec *Recorder
	k.Run("pool", func() { rec = p.Run() })
	if rec.Done == 0 || rec.Failed == 0 || rec.Lost == 0 {
		t.Fatalf("done/failed/lost = %d/%d/%d, want each above 0", rec.Done, rec.Failed, rec.Lost)
	}
	st := col.Stats()
	if st.TracesCompleted != rec.Done+rec.Failed {
		t.Fatalf("%d traces completed, want done+failed = %d", st.TracesCompleted, rec.Done+rec.Failed)
	}
	if st.TracesCompleted+st.TracesDropped != rec.Issued {
		t.Fatalf("%d completed + %d dropped traces, want issued = %d", st.TracesCompleted, st.TracesDropped, rec.Issued)
	}
}
