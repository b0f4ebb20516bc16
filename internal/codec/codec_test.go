package codec

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestRoundTripScalars(t *testing.T) {
	for _, v := range []any{int(42), int64(-7), 3.14, "hello", true, []byte{1, 2, 3}} {
		b, err := Encode(v)
		if err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("decode %T: %v", v, err)
		}
		switch want := v.(type) {
		case []byte:
			if !bytes.Equal(got.([]byte), want) {
				t.Fatalf("[]byte round trip: %v", got)
			}
		default:
			if got != v {
				t.Fatalf("round trip %T: got %v want %v", v, got, v)
			}
		}
	}
}

func TestRoundTripComposites(t *testing.T) {
	v := map[string]any{"xs": []float64{1, 2, 3}, "name": "model"}
	got := MustDecode(MustEncode(v)).(map[string]any)
	if got["name"] != "model" {
		t.Fatalf("name = %v", got["name"])
	}
	xs := got["xs"].([]float64)
	if len(xs) != 3 || xs[2] != 3 {
		t.Fatalf("xs = %v", xs)
	}
}

type custom struct {
	A int
	B string
}

// TestEncodeUnsupportedType: a type outside the supported list is an
// Encode error that names the type and says how to make it encodable.
// The boundary also holds inside containers: one unsupported element
// fails the whole Encode, naming the element's type.
func TestEncodeUnsupportedType(t *testing.T) {
	for _, tc := range []struct {
		v    any
		name string
	}{
		{int32(7), "int32"},
		{[]int64{1, 2}, "[]int64"},
		{custom{A: 1, B: "x"}, "codec.custom"},
		{&custom{A: 1}, "*codec.custom"},
		{map[string]any{"cfg": custom{A: 7}, "n": 3}, "codec.custom"},
		{[]any{custom{A: 7}, "tail"}, "codec.custom"},
		{[]any{"head", map[string]any{"deep": []any{int32(1)}}}, "int32"},
		{map[string]any{"xs": []int64{1}}, "[]int64"},
	} {
		b, err := Encode(tc.v)
		if err == nil {
			t.Fatalf("Encode(%T) = %x, want an error", tc.v, b)
		}
		for _, want := range []string{"unsupported type " + tc.name, "codec.Struct", "RegisterStruct"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Encode(%T) error %q does not mention %q", tc.v, err, want)
			}
		}
	}
}

func TestNilValue(t *testing.T) {
	b, err := Encode(nil)
	if err != nil {
		t.Fatalf("encode nil: %v", err)
	}
	got, err := Decode(b)
	if err != nil || got != nil {
		t.Fatalf("decode nil = %v, %v", got, err)
	}
}

func TestDecodeGarbageErrors(t *testing.T) {
	if _, err := Decode([]byte("not an encoding")); err == nil {
		t.Fatal("expected error")
	}
}

func TestSizeReflectsPayload(t *testing.T) {
	small := len(MustEncode(make([]byte, 10)))
	big := len(MustEncode(make([]byte, 10000)))
	if big-small < 9000 {
		t.Fatalf("size not proportional: small=%d big=%d", small, big)
	}
}

// TestDecodeStringListsAllocations is the tripwire for a decoded string
// list allocating per element again: a []string is one string copy, the
// slice and the interface box, whatever its length; a map[string]string
// is one string copy and the map.
func TestDecodeStringListsAllocations(t *testing.T) {
	ids := make([]string, 50) // a Retwis timeline
	for i := range ids {
		ids[i] = fmt.Sprintf("post-%d", 1000+i)
	}
	post := map[string]string{"author": "17", "text": "hello, world", "reply": "post-12"}
	for _, tc := range []struct {
		name string
		v    any
		want float64
	}{
		{"[]string of 50", ids, 3},
		{"3-entry map[string]string", post, 3},
	} {
		enc := MustEncode(tc.v)
		if n := testing.AllocsPerRun(100, func() { MustDecode(enc) }); n != tc.want {
			t.Errorf("decoding a %s allocates %.0f times, want %.0f", tc.name, n, tc.want)
		}
	}
}

// TestDecodedStringsOutliveBuffer: decoded strings are copies, not views
// of the input, so overwriting the encoded buffer after Decode leaves
// them unchanged.
func TestDecodedStringsOutliveBuffer(t *testing.T) {
	for _, v := range []any{
		[]string{"alpha", "", "beta", "gamma"},
		map[string]string{"k1": "v1", "k2": "", "": "v3"},
		map[string]any{"xs": []string{"nested", "list"}, "m": map[string]string{"a": "b"}},
	} {
		enc := MustEncode(v)
		got := MustDecode(enc)
		for i := range enc {
			enc[i] = 0xff
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("after overwriting the buffer, decoded %#v, want %#v", got, v)
		}
	}
}
