package codec

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func TestRoundTripScalars(t *testing.T) {
	for _, v := range []any{int(42), 3.14, "hello", true, []byte{1, 2, 3}} {
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
// fails the whole Encode, naming the element's type. The four retired
// types (their tags are reserved) are unsupported like any other.
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
		{map[string]any{"a": custom{A: 7}, "z": "tail"}, "codec.custom"},
		{map[string]any{"head": "h", "m": map[string]any{"deep": int32(1)}}, "int32"},
		{map[string]any{"xs": []int64{1}}, "[]int64"},
		{int64(-7), "int64"},
		{[]int{3, -4}, "[]int"},
		{[]any{"a", 1}, "[]interface {}"},
		{map[string]float64{"a": 1.5}, "map[string]float64"},
		{map[string]any{"n": int64(1)}, "int64"},
		{map[string]any{"xs": []int{1}}, "[]int"},
		{map[string]any{"l": []any{}}, "[]interface {}"},
		{map[string]any{"m": map[string]float64{}}, "map[string]float64"},
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
// list allocating per element, or copying, again: a []string is the slice
// of views and the interface box, whatever its length; a small
// map[string]string is the map's header and table, its keys and values
// views; a string is the interface box alone.
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
		{"[]string of 50", ids, 2},
		{"3-entry map[string]string", post, 2},
		{"string", "a function's string result", 1},
	} {
		enc := MustEncode(tc.v)
		if n := testing.AllocsPerRun(100, func() { MustDecode(enc) }); n != tc.want {
			t.Errorf("decoding a %s allocates %.0f times, want %.0f", tc.name, n, tc.want)
		}
	}
}

// TestDecodedStringsOutliveBuffer: a wire struct's Str and Strs
// fields are copies, not views of the input, so overwriting the encoded
// buffer after Decode leaves them unchanged.
func TestDecodedStringsOutliveBuffer(t *testing.T) {
	v := wireProbe{S: "probe", Ss: []string{"alpha", "", "beta"}, M: map[string]int64{"k": 1}}
	enc := MustEncode(v)
	got := MustDecode(enc)
	for i := range enc {
		enc[i] = 0xff
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("after overwriting the buffer, decoded %#v, want %#v", got, v)
	}
}

// viewsOutside returns every non-empty string, []byte and []string
// element in a decoded generic value, map keys included, whose bytes do
// not lie inside data. Wire structs copy, so it does not look inside
// them.
func viewsOutside(data []byte, v any) []string {
	var out []string
	lo, n := uintptr(unsafe.Pointer(unsafe.SliceData(data))), uintptr(len(data))
	str := func(s string) {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); s != "" && (p < lo || p+uintptr(len(s)) > lo+n) {
			out = append(out, s)
		}
	}
	switch x := v.(type) {
	case string:
		str(x)
	case []byte:
		str(view(x))
	case []string:
		for _, s := range x {
			str(s)
		}
	case map[string]string:
		for k, s := range x {
			str(k)
			str(s)
		}
	case map[string]any:
		for k, e := range x {
			str(k)
			out = append(out, viewsOutside(data, e)...)
		}
	}
	return out
}

// TestDecodedStringListAliasesInput: a decoded []string, at the top
// level or nested in a map[string]any, views the encoded buffer, as a
// []byte does: each non-empty element's bytes lie inside it.
func TestDecodedStringListAliasesInput(t *testing.T) {
	top := []string{"alpha", "", "beta", "gamma"}
	enc := MustEncode(top)
	got := MustDecode(enc).([]string)
	if !slices.Equal(got, top) {
		t.Fatalf("decoded %q, want %q", got, top)
	}
	if bad := viewsOutside(enc, got); len(bad) > 0 {
		t.Errorf("elements %q do not lie inside the encoded buffer", bad)
	}

	nested := map[string]any{"xs": []string{"nested", "list"}, "m": map[string]string{"a": "b"}}
	enc = MustEncode(nested)
	m := MustDecode(enc).(map[string]any)
	if !reflect.DeepEqual(m, nested) {
		t.Fatalf("decoded %#v, want %#v", m, nested)
	}
	if bad := viewsOutside(enc, m["xs"]); len(bad) > 0 {
		t.Errorf("elements %q do not lie inside the encoded buffer", bad)
	}
}

// TestDecodedStringsAliasInput: a decoded string, a map[string]string's
// keys and values and a map[string]any's keys, at the top level or
// nested in a map[string]any, view the encoded buffer too.
func TestDecodedStringsAliasInput(t *testing.T) {
	for _, v := range []any{
		"a string",
		map[string]string{"k1": "v1", "k2": "", "": "v3"},
		map[string]any{"m": map[string]string{"a": "b"}, "s": "nested"},
		map[string]any{"s": "a", "b": []byte("bytes"), "m": map[string]any{"k": "v"}},
	} {
		enc := MustEncode(v)
		got := MustDecode(enc)
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("decoded %#v, want %#v", got, v)
		}
		if bad := viewsOutside(enc, got); len(bad) > 0 {
			t.Errorf("decoding %#v: %q do not lie inside the encoded buffer", v, bad)
		}
	}
}

// oracleStrs is Reader.Strs as it was before it cut its list with one
// helper (now cutStrList): one Str, so one string, per element.
func oracleStrs(r *Reader) []string {
	n := r.Count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.Str())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// oracleDecodeStrings is Decode's []string case as it was before
// cutStrList: one copy of the whole body, prefixes included, cut
// element by element with readChunk.
func oracleDecodeStrings(data []byte) ([]string, error) {
	tag, body := data[0], data[1:]
	n, body, err := readCount(tag, body, 0)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	all := string(body)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var s []byte
		if s, body, err = readChunk(tag, body); err != nil {
			return nil, err
		}
		end := len(all) - len(body)
		out = append(out, all[end-len(s):end])
	}
	return out, nil
}

// TestCutStringsMatchesOracle holds both decoders' string lists to the
// per-element loops they replaced: equal values on random lists (empty
// strings and 0-, 1- and 1,000-element lists included), and a failure
// from both at every truncation of the encoding.
func TestCutStringsMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	lists := [][]string{nil, {}, {""}, {"only"}, {"", "", ""}}
	for _, n := range []int{1, 1000} {
		xs := make([]string, n)
		for i := range xs {
			xs[i] = randString(r)
		}
		lists = append(lists, xs)
	}
	for i := 0; i < 200; i++ {
		xs := make([]string, r.Intn(20))
		for j := range xs {
			xs[j] = randString(r) // a fifth of them empty, on average
		}
		lists = append(lists, xs)
	}
	for _, xs := range lists {
		body := AppendStrs(nil, xs)
		got, want := NewReader(body), NewReader(body)
		if g, w := got.Strs(), oracleStrs(&want); !reflect.DeepEqual(g, w) || got.Done() != nil || want.Done() != nil {
			t.Fatalf("Reader.Strs(%q) = %q (%v), oracle %q (%v)", xs, g, got.Done(), w, want.Done())
		}
		enc := MustEncode(xs)
		v, err := Decode(enc)
		w, werr := oracleDecodeStrings(enc)
		if err != nil || werr != nil || !reflect.DeepEqual(v, w) {
			t.Fatalf("Decode(%q) = %#v, %v; oracle %#v, %v", xs, v, err, w, werr)
		}

		// Every proper prefix of a 1,000-element encoding would make
		// this quadratic; a stride keeps cuts at every offset mod 7.
		step := 1
		if len(body) > 1000 {
			step = 7
		}
		for cut := 0; cut < len(body); cut += step {
			g, o := NewReader(body[:cut]), NewReader(body[:cut])
			g.Strs()
			oracleStrs(&o)
			if g.Err() == nil || o.Err() == nil {
				t.Fatalf("Reader.Strs on %d of %d bytes: err %v, oracle err %v", cut, len(body), g.Err(), o.Err())
			}
		}
		for cut := 1; cut < len(enc); cut += step {
			_, err := Decode(enc[:cut])
			_, werr := oracleDecodeStrings(enc[:cut])
			if err == nil || werr == nil {
				t.Fatalf("Decode on %d of %d bytes: err %v, oracle err %v", cut, len(enc), err, werr)
			}
		}
	}
}

// TestDecodeRejectsTrailingBytes: a container's body ends at its last
// element, as a fixed-size value's and a wire struct's do, so one byte
// more is an error, for an empty container too.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	for _, v := range []any{
		[]string{"a", "bc"},
		[]string{},
		map[string]string{"k": "v"},
		map[string]string{},
		map[string]any{"k": 1.5},
		map[string]any{},
	} {
		enc := MustEncode(v)
		if _, err := Decode(enc); err != nil {
			t.Fatalf("Decode(%#v): %v", v, err)
		}
		if got, err := Decode(append(enc, 0)); err == nil {
			t.Errorf("%#v plus one byte decoded as %#v, want an error", v, got)
		}
	}
}
