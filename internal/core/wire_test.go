package core

// Wire-codec parity for the metrics structs: the struct path must be
// observationally equivalent to a gob round trip of the same value —
// Decode(Encode(v)) equals what encoding/gob gives back — including
// zero values and the nil/empty slice and map conventions gob's
// struct-field omission produces. gob is the test-side reference only.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"cloudburst/internal/codec"
)

func init() {
	gob.Register(ExecutorMetrics{})
	gob.Register(SchedulerMetrics{})
}

// gobRoundTrip is the reference: v through encoding/gob and back.
func gobRoundTrip(t *testing.T, v any) any {
	t.Helper()
	type envelope struct{ V any }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope{V: v}); err != nil {
		t.Fatalf("gob encode %T: %v", v, err)
	}
	var env envelope
	if err := gob.NewDecoder(&buf).Decode(&env); err != nil {
		t.Fatalf("gob decode %T: %v", v, err)
	}
	return env.V
}

func assertWireParity(t *testing.T, v any) {
	t.Helper()
	viaCodec := codec.MustDecode(codec.MustEncode(v))
	viaGob := gobRoundTrip(t, v)
	if !reflect.DeepEqual(viaCodec, viaGob) {
		t.Fatalf("wire parity violation for %T:\n struct: %#v\n gob:    %#v", v, viaCodec, viaGob)
	}
}

func TestMetricsWireParity(t *testing.T) {
	for _, v := range []any{
		ExecutorMetrics{
			Thread: "exec-vm0-1", VM: "vm0", Utilization: 0.73,
			Pinned: []string{"f", "g"}, Completed: 912, AvgLatencyS: 0.041,
			ReportedAtS: 12.5,
		},
		ExecutorMetrics{},                   // zero value
		ExecutorMetrics{Pinned: []string{}}, // empty slice → nil, like gob
		SchedulerMetrics{
			Scheduler:   "sched-0",
			DAGCalls:    map[string]int64{"d1": 3, "d2": 9},
			FnCalls:     map[string]int64{"f": 12, "done/d1": 3},
			ReportedAtS: 8.25,
		},
		SchedulerMetrics{},
		SchedulerMetrics{DAGCalls: map[string]int64{}, FnCalls: map[string]int64{}}, // empty maps → nil, like gob
	} {
		assertWireParity(t, v)
	}
}

// TestCacheMetricsWireRoundTrip: a CacheMetrics decodes to its fields
// with its key list viewed in place, element for element, and re-encodes
// to the same bytes, an empty list (nil, empty or absent) as count 0.
// (Its key list is a codec.StrList, which gob cannot carry, so it has no
// gob parity case.)
func TestCacheMetricsWireRoundTrip(t *testing.T) {
	for _, keys := range [][]string{{"a", "b"}, {"", "k", "k1", "\xff"}, {}, nil} {
		in := CacheMetrics{VM: "vm1", Cache: "cache-vm1", Keys: codec.StrListOf(keys), ReportedAtS: 4}
		enc := codec.MustEncode(in)
		out := codec.MustDecode(enc).(CacheMetrics)
		var got []string
		codec.StrList{}.Diff(out.Keys, nil, func(k []byte) { got = append(got, string(k)) })
		if out.VM != in.VM || out.Cache != in.Cache || out.ReportedAtS != in.ReportedAtS || !slices.Equal(got, keys) {
			t.Fatalf("round trip of %q: %+v with keys %q", keys, out, got)
		}
		if re := codec.MustEncode(out); !bytes.Equal(re, enc) {
			t.Fatalf("%q re-encodes as %x, was %x", keys, re, enc)
		}
	}
}

// TestCacheMetricsDecodeAllocations: a decoded key set is a view of the
// payload, so a cache's report decodes in the same 4 allocations whatever
// its length: its VM and cache names, the decoded struct and its box. (A
// []string key list made 2 more, its copy and its slice.)
func TestCacheMetricsDecodeAllocations(t *testing.T) {
	counts := map[int]float64{}
	for _, n := range []int{10, 1000} {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%06d", i)
		}
		enc := codec.MustEncode(CacheMetrics{VM: "vm0", Cache: "cache-vm0", Keys: codec.StrListOf(keys)})
		counts[n] = testing.AllocsPerRun(100, func() { codec.MustDecode(enc) })
	}
	if counts[10] != 4 || counts[1000] != 4 {
		t.Fatalf("decoding a CacheMetrics allocates %.1f times for 10 keys and %.1f for 1,000, want 4 for both", counts[10], counts[1000])
	}
}

func TestMetricsWireRoundTripExact(t *testing.T) {
	in := ExecutorMetrics{
		Thread: "exec-vm2-0", VM: "vm2", Utilization: 1,
		Pinned: []string{"only"}, Completed: 1, AvgLatencyS: 0.5, ReportedAtS: 99,
	}
	out := codec.MustDecode(codec.MustEncode(in)).(ExecutorMetrics)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestWireDecodeRejectsTruncatedStruct(t *testing.T) {
	enc := codec.MustEncode(SchedulerMetrics{Scheduler: "s", DAGCalls: map[string]int64{"d": 1}})
	for cut := 1; cut < len(enc); cut++ {
		if _, err := codec.Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(enc))
		}
	}
}
