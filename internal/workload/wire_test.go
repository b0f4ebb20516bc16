package workload

// Wire-codec parity for TimelineResult against a gob round trip, the
// test-side reference (see internal/core/wire_test.go for the
// convention).

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"cloudburst/internal/codec"
)

func init() { gob.Register(TimelineResult{}) }

func TestTimelineResultWireParity(t *testing.T) {
	type envelope struct{ V any }
	for _, v := range []TimelineResult{
		{Posts: 10, Anomalies: 3},
		{Posts: 1},
		{}, // zero value
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(envelope{V: v}); err != nil {
			t.Fatal(err)
		}
		var viaGob envelope
		if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
			t.Fatal(err)
		}
		viaCodec := codec.MustDecode(codec.MustEncode(v))
		if !reflect.DeepEqual(viaCodec, viaGob.V) {
			t.Fatalf("wire parity violation:\n struct: %#v\n gob:    %#v", viaCodec, viaGob.V)
		}
		if got := viaCodec.(TimelineResult); got != v {
			t.Fatalf("round trip: %+v != %+v", got, v)
		}
	}
}
