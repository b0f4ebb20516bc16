package dag

// Wire-codec parity for DAG topologies against a gob round trip, the
// test-side reference (see internal/core/wire_test.go for the
// convention).

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"cloudburst/internal/codec"
)

func init() { gob.Register(DAG{}) }

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

func TestDAGWireParity(t *testing.T) {
	for _, d := range []DAG{
		*Linear("chain", "a", "b", "c"),
		*New("diamond", []string{"s", "l", "r", "t"},
			[][2]string{{"s", "l"}, {"s", "r"}, {"l", "t"}, {"r", "t"}}),
		{Name: "lonely", Functions: []string{"only"}},
		{},                      // zero value
		{Functions: []string{}}, // empty slice → nil, like gob
		{Edges: [][2]string{}},  // empty edges → nil, like gob
	} {
		viaCodec := codec.MustDecode(codec.MustEncode(d))
		viaGob := gobRoundTrip(t, d)
		if !reflect.DeepEqual(viaCodec, viaGob) {
			t.Fatalf("wire parity violation:\n struct: %#v\n gob:    %#v", viaCodec, viaGob)
		}
		got := viaCodec.(DAG)
		if got.Name != d.Name || len(got.Functions) != len(d.Functions) || len(got.Edges) != len(d.Edges) {
			t.Fatalf("round trip lost structure: %#v vs %#v", got, d)
		}
	}
}

func TestDAGWireRejectsGarbage(t *testing.T) {
	enc := codec.MustEncode(*Linear("chain", "a", "b"))
	for cut := 1; cut < len(enc); cut++ {
		if _, err := codec.Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(enc))
		}
	}
}
