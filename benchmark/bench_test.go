package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestMedianAndSpread(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		median, spread float64
	}{
		{nil, 0, 0},
		{[]float64{7}, 7, 0},
		{[]float64{3, 1, 2}, 2, 1},
		{[]float64{4, 1, 3, 2}, 2.5, 1},                 // quartiles 1.25 and 3.75
		{[]float64{10, 11, 12, 13, 100}, 12, 46.0 / 12}, // quartiles 10.5 and 56.5, as statistics.quantiles gives them
	} {
		if got := median(tc.xs); got != tc.median {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.median)
		}
		if got := spread(tc.xs); math.Abs(got-tc.spread) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.xs, got, tc.spread)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 1; i <= 200; i++ {
		xs = append(xs, time.Duration(i))
	}
	for p, want := range map[float64]time.Duration{0.5: 100, 0.99: 198, 1: 200, 0.001: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// The highest quotable percentile must leave at least ten samples beyond it.
func TestHighestTail(t *testing.T) {
	for n, want := range map[int]float64{
		5: 0, 99: 0, 100: 0.90, 200: 0.95, 999: 0.95, 1000: 0.99, 2000: 0.99,
		9999: 0.99, 10_000: 0.999, 100_000: 0.9999,
	} {
		if got := highestTail(n); got != want {
			t.Errorf("highestTail(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cloudburst/internal/anna.(*tieredStore).each":                             "anna",
		"cloudburst/internal/vtime.(*Chan[cloudburst/internal/cache.wbItem]).Recv": "vtime",
		"cloudburst/internal/simnet.OnMessage[...].func1":                          "simnet",
		"cloudburst/internal/txn.(*Coordinator).Commit":                            "rest",
		"cloudburst.(*Client).Invoke":                                              "cloudburst",
		"main.prepareHotOpen.func5":                                                "harness",
		"cloudburst/benchmark.coldScan.func2":                                      "harness",
		"runtime.mallocgc":                                                         "",
		"sort.Strings":                                                             "",
		"encoding/gob.(*Decoder).Decode":                                           "",
	} {
		got, ok := layerOf(fn)
		if got != want || ok != (want != "") {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

// A sample belongs to its innermost repository frame; without one it is
// the collector's if any frame is GC work, else the runtime's.
func TestFoldByLayer(t *testing.T) {
	ms := int64(time.Millisecond)
	got := foldByLayer([]stackSample{
		{[]string{"sort.Strings", "cloudburst/internal/anna.sortedEntryKeys", "cloudburst/internal/anna.(*Node).gossipTick", "cloudburst/internal/vtime.(*proc).runBody"}, 30 * ms},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "cloudburst/internal/codec.appendValue", "cloudburst/internal/cache.(*Cache).Read"}, 20 * ms},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 10 * ms},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule"}, 5 * ms},
		{[]string{"main.scanArrays", "cloudburst/internal/executor.(*Thread).run"}, 2 * ms},
	})
	want := map[string]float64{"anna": 30, "codec": 20, layerGC: 10, layerOther: 5, "harness": 2}
	if len(got) != len(want) {
		t.Fatalf("foldByLayer = %v, want %v", got, want)
	}
	for layer, v := range want {
		if got[layer] != v {
			t.Errorf("foldByLayer[%s] = %v, want %v", layer, got[layer], v)
		}
	}
}

// protoMsg builds protobuf messages for the profile decoder's test.
type protoMsg struct{ bytes.Buffer }

func (m *protoMsg) varint(v uint64) {
	for ; v >= 0x80; v >>= 7 {
		m.WriteByte(byte(v) | 0x80)
	}
	m.WriteByte(byte(v))
}
func (m *protoMsg) uint(field int, v uint64) { m.varint(uint64(field) << 3); m.varint(v) }
func (m *protoMsg) bytes(field int, b []byte) {
	m.varint(uint64(field)<<3 | 2)
	m.varint(uint64(len(b)))
	m.Write(b)
}
func packed(vs ...uint64) []byte {
	var m protoMsg
	for _, v := range vs {
		m.varint(v)
	}
	return m.Bytes()
}

func TestParseProfile(t *testing.T) {
	var p protoMsg
	for _, s := range []string{"", "leaf", "inlined", "root"} {
		p.bytes(6, []byte(s))
	}
	for id := uint64(1); id <= 3; id++ { // function id -> name at string index id
		var f protoMsg
		f.uint(1, id)
		f.uint(2, id)
		p.bytes(5, f.Bytes())
	}
	line := func(fn uint64) []byte { var l protoMsg; l.uint(1, fn); return l.Bytes() }
	var loc1, loc2 protoMsg // location 1: leaf inlined into "inlined"; location 2: root
	loc1.uint(1, 1)
	loc1.bytes(4, line(1))
	loc1.bytes(4, line(2))
	loc2.uint(1, 2)
	loc2.bytes(4, line(3))
	p.bytes(4, loc1.Bytes())
	p.bytes(4, loc2.Bytes())
	var s protoMsg
	s.bytes(1, packed(1, 2))
	s.bytes(2, packed(3, 30_000_000))
	p.bytes(2, s.Bytes())
	p.uint(12, 10_000_000) // period: a field the decoder skips

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()
	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].cpuNS != 30_000_000 || strings.Join(samples[0].frames, ">") != "leaf>inlined>root" {
		t.Fatalf("parseProfile = %+v", samples)
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("parseProfile accepted a truncated profile")
	}
}

func TestVerdict(t *testing.T) {
	lower := declared{Name: "host_cpu_s", Better: "lower", Bound: 0.10}
	higher := declared{Name: "sim_req_per_s", Better: "higher", Bound: 0.02}
	for _, tc := range []struct {
		m                declared
		old, new, spread float64
		want             string
	}{
		{lower, 10, 10.9, 0.03, within},
		{lower, 10, 11.1, 0.03, worse},
		{lower, 10, 8.9, 0.03, better},
		{lower, 10, 11.1, 0.12, unresolved},
		{lower, 10, 10, 0.12, unresolved},
		{higher, 100, 97, 0, worse},
		{higher, 100, 103, 0, better},
		{higher, 100, 99, 0, within},
		{lower, 0, 0, 0, within},
		{lower, 0, 1, 0, worse},
	} {
		if got := verdict(tc.m, tc.old, tc.new, tc.spread); got != tc.want {
			t.Errorf("verdict(%s, %v -> %v, spread %v) = %s, want %s", tc.m.Name, tc.old, tc.new, tc.spread, got, tc.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	metrics := []declared{{Name: "host_cpu_s", Unit: "s", Better: "lower", Bound: 0.10}}
	rep := func(cpu float64, failed int) report {
		return report{Workloads: []workloadReport{{
			Name: "hot-open", Requests: 1000, Failed: failed,
			EndToEnd: map[string]metric{"host_cpu_s": {cpu, "s"}},
			Samples:  map[string][]float64{"host_cpu_s": {cpu, cpu * 1.01}},
		}}}
	}
	var out bytes.Buffer
	if err := compareReports(metrics, rep(10, 0), rep(10.5, 0), &out); err != nil {
		t.Errorf("a 5%% rise within a 10%% bound failed: %v", err)
	}
	if !strings.Contains(out.String(), within) {
		t.Errorf("output has no %q row:\n%s", within, out.String())
	}
	if err := compareReports(metrics, rep(10, 0), rep(12, 0), &out); err == nil {
		t.Error("a 20% rise beyond a 10% bound passed")
	}
	if err := compareReports(metrics, rep(10, 0), rep(10, 1), &out); err == nil {
		t.Error("a rise in failed requests passed")
	}
}

// benchmarkSpec is the part of ../BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []declared              `json:"end_to_end"`
	PerLayer  []declared              `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	var spec benchmarkSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecListsEveryWorkload(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestSmoke runs every workload at 1/50 size, traced, and checks that each
// metric BENCHMARK.json declares comes out, finite, and no other.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	sp := newSpanLog()
	for _, w := range workloads {
		wr, err := measure(w, options{seed: 1, reps: 1, traced: true, div: smokeDiv}, sp)
		if err != nil {
			t.Fatal(err)
		}
		if !wr.Correct {
			t.Errorf("%s: wrong output: %s", w.name, wr.Wrong)
		}
		for kind, pair := range map[string]struct {
			declared []declared
			got      map[string]metric
		}{"end_to_end": {spec.EndToEnd, wr.EndToEnd}, "per_layer": {spec.PerLayer, wr.PerLayer}} {
			if err := finite(pair.got); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			for _, m := range pair.declared {
				got, ok := pair.got[m.Name]
				if !ok {
					t.Errorf("%s: %s metric %s is declared but not emitted", w.name, kind, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", w.name, m.Name, got.Unit, m.Unit)
				}
			}
			if len(pair.got) != len(pair.declared) {
				t.Errorf("%s: %d %s metrics emitted, %d declared", w.name, len(pair.got), kind, len(pair.declared))
			}
		}
	}
	data, err := sp.chromeJSON()
	if err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	var events struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &events); err != nil || len(events.TraceEvents) != len(sp.spans) {
		t.Errorf("chrome trace has %d events for %d spans (%v)", len(events.TraceEvents), len(sp.spans), err)
	}
}
