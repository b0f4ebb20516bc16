package core

// Wire-codec parity for the metrics structs: the struct path must be
// observationally equivalent to a gob round trip of the same value —
// Decode(Encode(v)) equals what encoding/gob gives back — including
// zero values and the nil/empty slice and map conventions gob's
// struct-field omission produces. gob is the test-side reference only.

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"cloudburst/internal/codec"
)

func init() {
	gob.Register(ExecutorMetrics{})
	gob.Register(CacheMetrics{})
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
		CacheMetrics{VM: "vm1", Cache: "cache-vm1", Keys: []string{"a", "b"}, ReportedAtS: 4},
		CacheMetrics{},
		CacheMetrics{Keys: []string{}},
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
