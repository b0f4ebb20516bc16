package trace

import (
	"strings"
	"testing"
	"time"

	"cloudburst/internal/vtime"
)

func ms(n int) vtime.Time { return vtime.Time(n) * vtime.Time(time.Millisecond) }

func TestRootFinishSummary(t *testing.T) {
	c := New()
	ctx := c.Root("r1", "invoke", ms(0))
	if !ctx.Enabled() {
		t.Fatal("root ctx disabled")
	}
	ctx.Record("net", Network, ms(0), ms(2))
	body := ctx.Start("exec", Compute, ms(2))
	read := body.Start("cache/read", Cache, ms(3))
	read.Record("anna/get", KVS, ms(4), ms(7))
	read.End(ms(8))
	body.End(ms(12))
	s, ok := c.Finish("r1", ms(14))
	if !ok {
		t.Fatal("finish missed the trace")
	}
	if s.Wall != 14*time.Millisecond {
		t.Fatalf("wall = %v", s.Wall)
	}
	want := map[Category]time.Duration{
		Network:      2 * time.Millisecond,
		Compute:      5 * time.Millisecond, // [2,3)+[8,12): body minus the read
		Cache:        2 * time.Millisecond, // [3,4)+[7,8): read minus the get
		KVS:          3 * time.Millisecond, // [4,7)
		Unattributed: 2 * time.Millisecond, // [12,14)
	}
	var sum time.Duration
	for cat, w := range want {
		if s.ByCat[cat] != w {
			t.Errorf("%s = %v, want %v", cat, s.ByCat[cat], w)
		}
		sum += w
	}
	if sum != s.Wall {
		t.Fatalf("test categories sum %v != wall %v", sum, s.Wall)
	}
}

// Overlapping siblings at equal depth: the later-opened span wins its
// overlap (stack semantics without explicit nesting).
func TestAnalyzeSiblingOverlapLatestWins(t *testing.T) {
	c := New()
	ctx := c.Root("r", "invoke", ms(0))
	ctx.Record("a", Compute, ms(0), ms(10))
	ctx.Record("b", KVS, ms(4), ms(6))
	s, _ := c.Finish("r", ms(10))
	if s.ByCat[Compute] != 8*time.Millisecond || s.ByCat[KVS] != 2*time.Millisecond {
		t.Fatalf("compute=%v kvs=%v", s.ByCat[Compute], s.ByCat[KVS])
	}
}

func TestReissueRecordsRetry(t *testing.T) {
	c := New()
	c.Root("r", "invoke", ms(0))
	c.Reissue("r", ms(30))
	tr := c.active["r"]
	if tr.Attempt != 1 {
		t.Fatalf("attempt = %d", tr.Attempt)
	}
	if tr.ID == traceID("r", 0) {
		t.Fatal("trace ID did not advance with the attempt")
	}
	s, _ := c.Finish("r", ms(40))
	if s.ByCat[Retry] != 30*time.Millisecond {
		t.Fatalf("retry = %v", s.ByCat[Retry])
	}
	if s.Attempts != 2 {
		t.Fatalf("attempts = %d", s.Attempts)
	}
}

func TestRingRecyclesTraces(t *testing.T) {
	c := NewRing(2)
	for i := 0; i < 5; i++ {
		id := string(rune('a' + i))
		ctx := c.Root(id, "op", ms(i))
		ctx.Record("w", Compute, ms(i), ms(i+1))
		c.Finish(id, ms(i+1))
	}
	done := c.Done()
	if len(done) != 2 || done[0].ReqID != "d" || done[1].ReqID != "e" {
		t.Fatalf("ring holds %d traces, first %q", len(done), done[0].ReqID)
	}
	if c.free.Len() == 0 {
		t.Fatal("evicted traces were not recycled")
	}
	if len(c.Summaries()) != 5 {
		t.Fatalf("summaries = %d, want all 5", len(c.Summaries()))
	}
}

func TestQuantileDeterministic(t *testing.T) {
	c := New()
	for i, w := range []int{5, 1, 9, 3, 7} {
		id := string(rune('a' + i))
		c.Root(id, "op", ms(0))
		c.Finish(id, ms(w))
	}
	if s, _ := c.Quantile(0.5); s.Wall != 5*time.Millisecond {
		t.Fatalf("p50 wall = %v", s.Wall)
	}
	if s, _ := c.Quantile(1.0); s.Wall != 9*time.Millisecond {
		t.Fatalf("p100 wall = %v", s.Wall)
	}
	if s, _ := c.Quantile(0); s.Wall != 1*time.Millisecond {
		t.Fatalf("p0 wall = %v", s.Wall)
	}
}

func TestTraceIDDeterministic(t *testing.T) {
	if traceID("req-1", 0) != traceID("req-1", 0) {
		t.Fatal("same inputs, different IDs")
	}
	if traceID("req-1", 0) == traceID("req-1", 1) {
		t.Fatal("attempt not folded into the ID")
	}
	if traceID("req-1", 0) == traceID("req-2", 0) {
		t.Fatal("request ID not folded into the ID")
	}
}

func TestExporters(t *testing.T) {
	c := New()
	ctx := c.Root("r1", "invoke", ms(0))
	body := ctx.Start("exec", Compute, ms(1))
	body.Record("anna/get", KVS, ms(2), ms(5))
	body.End(ms(9))
	c.Finish("r1", ms(10))

	js := string(c.ChromeJSON())
	for _, want := range []string{`"ph":"X"`, `"name":"anna/get"`, `"cat":"kvs"`, `"req":"r1"`} {
		if !strings.Contains(js, want) {
			t.Errorf("chrome JSON missing %s in:\n%s", want, js)
		}
	}
	if js != string(c.ChromeJSON()) {
		t.Fatal("ChromeJSON not deterministic")
	}

	tree := TreeString(c.Done()[0])
	for _, want := range []string{"req=r1", "exec", "└─ anna/get", "kvs"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q in:\n%s", want, tree)
		}
	}
}

func TestSummaryDominantAndAttributed(t *testing.T) {
	var s Summary
	s.Wall = 10 * time.Millisecond
	s.ByCat[Queue] = 6 * time.Millisecond
	s.ByCat[Compute] = 2 * time.Millisecond
	s.ByCat[Unattributed] = 2 * time.Millisecond
	cat, share := s.Dominant()
	if cat != Queue || share != 0.6 {
		t.Fatalf("dominant = %s %.2f", cat, share)
	}
	if got := s.Attributed(); got != 0.8 {
		t.Fatalf("attributed = %.2f", got)
	}
}

// The zero-cost contract when tracing is off: every operation on a nil
// collector or zero Ctx allocates nothing.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var c *Collector
	var ctx Ctx
	allocs := testing.AllocsPerRun(1000, func() {
		rctx := c.Root("req", "invoke", 0)
		actx := c.Attach("req")
		c.Reissue("req", 0)
		c.Finish("req", 0)
		c.Drop("req")
		child := ctx.Start("s", Compute, 0)
		child.End(1)
		ctx.Record("r", KVS, 0, 1)
		rctx.Record("r", KVS, 0, 1)
		actx.End(1)
		_ = c.Stats()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f/op, want 0", allocs)
	}
}
