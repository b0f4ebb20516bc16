package dag

// Wire-codec parity for DAG topologies against a gob round trip, the
// test-side reference (see internal/core/wire_test.go for the
// convention).

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
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
		{Name: "lonely", Functions: []string{"only"}},
		{},                      // zero value
		{Functions: []string{}}, // empty slice → nil, like gob
	} {
		viaCodec := codec.MustDecode(codec.MustEncode(d))
		viaGob := gobRoundTrip(t, d)
		if !reflect.DeepEqual(viaCodec, viaGob) {
			t.Fatalf("wire parity violation:\n struct: %#v\n gob:    %#v", viaCodec, viaGob)
		}
		got := viaCodec.(DAG)
		if got.Name != d.Name || len(got.Functions) != len(d.Functions) {
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

// TestDAGWireGolden pins the encoding: a chain writes its n−1 links as
// (from, to) name pairs after its functions, the bytes a DAG capsule has
// always had, so every stored topology decodes and re-encodes unchanged.
func TestDAGWireGolden(t *testing.T) {
	for _, c := range []struct {
		d    *DAG
		want string
	}{
		{Linear("p", "a", "b", "c"), "0f076461672e444147010000007003000000010000006101000000620100000063" +
			"020000000100000061010000006201000000620100000063"},
		{Linear("solo", "f"), "0f076461672e44414704000000736f6c6f01000000010000006600000000"},
	} {
		enc := codec.MustEncode(*c.d)
		if got := hex.EncodeToString(enc); got != c.want {
			t.Fatalf("%s encodes as\n %s, want\n %s", c.d.Name, got, c.want)
		}
		if got := codec.MustDecode(enc).(DAG); !reflect.DeepEqual(got, *c.d) {
			t.Fatalf("%s decodes as %+v", c.d.Name, got)
		}
	}
}

// chainBody is a wire body naming functions a, b, c with the given links.
func chainBody(ls ...[2]string) []byte {
	b := codec.AppendStr(nil, "d")
	b = codec.AppendStrs(b, []string{"a", "b", "c"})
	b = codec.AppendU32(b, uint32(len(ls)))
	for _, l := range ls {
		b = codec.AppendStr(b, l[0])
		b = codec.AppendStr(b, l[1])
	}
	return b
}

// TestDAGWireRejectsNonChains: the decoder derives a DAG's links from
// its functions, so a link list that is not their chain is malformed.
func TestDAGWireRejectsNonChains(t *testing.T) {
	var d DAG
	if err := d.DecodeWire(chainBody([2]string{"a", "b"}, [2]string{"b", "c"})); err != nil {
		t.Fatalf("the chain itself: %v", err)
	}
	for name, body := range map[string][]byte{
		"fan-in":      chainBody([2]string{"a", "c"}, [2]string{"b", "c"}),
		"swapped":     chainBody([2]string{"b", "c"}, [2]string{"a", "b"}),
		"reversed":    chainBody([2]string{"b", "a"}, [2]string{"c", "b"}),
		"no links":    chainBody(),
		"one link":    chainBody([2]string{"a", "b"}),
		"three links": chainBody([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"}),
	} {
		var d DAG
		if err := d.DecodeWire(body); err == nil {
			t.Errorf("%s: decoded as %+v", name, d)
		}
	}
}

// FuzzDAGDecode: whatever decodes re-encodes to the same bytes, so a
// decoder that derives the links from the functions accepts no list the
// encoder would not write.
func FuzzDAGDecode(f *testing.F) {
	f.Add(Linear("p", "a", "b", "c").AppendWire(nil))
	f.Add(Linear("solo", "f").AppendWire(nil))
	f.Add(DAG{}.AppendWire(nil))
	f.Add(chainBody([2]string{"a", "c"}, [2]string{"b", "c"}))
	f.Add(chainBody([2]string{"a", "b"}))
	f.Fuzz(func(t *testing.T, body []byte) {
		var d DAG
		if d.DecodeWire(body) != nil {
			return
		}
		if got := d.AppendWire(nil); !bytes.Equal(got, body) {
			t.Fatalf("%x decoded as %+v, which encodes as %x", body, d, got)
		}
	})
}
