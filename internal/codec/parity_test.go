package codec

// Parity tests: the codec must be observationally equivalent to a gob
// round trip of the same value — Decode(Encode(v)) equals what
// encoding/gob gives back — for every supported type, including nested
// map[string]any values. gob is the test-side reference only; no
// production code imports it.

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// envelope lets gob encode interface values uniformly.
type envelope struct {
	V any
}

func init() {
	gob.Register(map[string]any{})
	gob.Register([]string{})
	gob.Register([]float64{})
	gob.Register([]byte{})
	gob.Register(map[string]string{})
}

// gobRoundTrip is the reference: v through encoding/gob and back.
func gobRoundTrip(t testing.TB, v any) any {
	t.Helper()
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

// assertParity checks the codec and gob round trips of v agree.
func assertParity(t *testing.T, v any) {
	t.Helper()
	enc, err := Encode(v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	viaCodec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	viaGob := gobRoundTrip(t, v)
	if !reflect.DeepEqual(viaCodec, viaGob) {
		t.Fatalf("parity violation for %T:\n codec: %#v\n gob:   %#v", v, viaCodec, viaGob)
	}
}

// supported has one value of every supported non-struct type.
var supported = []any{
	[]byte{1, 2, 3},
	"hello",
	int(-9),
	float64(2.75),
	[]float64{1, 2.5},
	[]string{"a", "bb"},
	map[string]any{"k": 1},
	map[string]string{"k": "v"},
}

func TestSupportedTypesParity(t *testing.T) {
	for _, v := range supported {
		assertParity(t, v)
	}
}

// TestDecodeReservedTag: tag 0x00 is never assigned, so it is an error
// whatever follows it — a real gob stream included — at the top level
// and as a map[string]any value. So are the retired tags 0x05 (int64),
// 0x09 ([]int), 0x0b ([]any) and 0x0e (map[string]float64), each
// followed by the body its type was once written with.
func TestDecodeReservedTag(t *testing.T) {
	var gobStream bytes.Buffer
	if err := gob.NewEncoder(&gobStream).Encode(envelope{V: "x"}); err != nil {
		t.Fatal(err)
	}
	reserved := [][]byte{
		{0x00}, {0x00, 1, 2, 3}, append([]byte{0x00}, gobStream.Bytes()...),
		{0x05, 7, 0, 0, 0, 0, 0, 0, 0},             // int64(7)
		{0x09, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0}, // []int{7}
		{0x0b, 0, 0, 0, 0},                         // []any{}
		{0x0e, 0, 0, 0, 0},                         // map[string]float64{}
	}
	for _, data := range reserved {
		if v, err := Decode(data); err == nil || !strings.Contains(err.Error(), "unknown tag") {
			t.Errorf("Decode(%x) = %#v, %v; want an unknown-tag error", data, v, err)
		}
		// Nested, too: a map[string]any whose one value is that encoding.
		nested := AppendU32([]byte{tagMapSA}, 1)
		nested = AppendU32(nested, 1)
		nested = append(nested, 'k')
		nested = AppendU32(nested, uint32(len(data)))
		nested = append(nested, data...)
		if v, err := Decode(nested); err == nil || !strings.Contains(err.Error(), "unknown tag") {
			t.Errorf("Decode of %x nested in a map[string]any = %#v, %v; want an unknown-tag error", data, v, err)
		}
	}
}

func TestParityEmptyAndNil(t *testing.T) {
	for _, v := range []any{
		nil, "", []byte{}, []byte(nil), []float64{}, []float64(nil),
		[]string{}, map[string]string{}, map[string]any{},
		map[string]string(nil), map[string]any(nil), []string(nil),
		int(0), float64(0), false, true,
		math.Inf(1), math.Inf(-1), math.MaxInt64, math.MinInt64,
	} {
		assertParity(t, v)
	}
	// NaN breaks DeepEqual; check the bit pattern survives instead.
	if got := MustDecode(MustEncode(math.NaN())).(float64); !math.IsNaN(got) {
		t.Fatalf("NaN round trip: %v", got)
	}
}

// randValue builds a random value drawn from the supported type set,
// with nested containers (and the occasional wire struct) up to the
// given depth.
func randValue(r *rand.Rand, depth int) any {
	max := 10
	if depth <= 0 {
		max = 7 // leaves only
	}
	switch r.Intn(max) {
	case 8:
		return randWireProbe(r) // struct path (tag 0x0f)
	case 0:
		return nil
	case 1:
		b := make([]byte, r.Intn(20))
		r.Read(b)
		return b
	case 2:
		return randString(r)
	case 3:
		return int(r.Int63()) - (1 << 40)
	case 4:
		return r.NormFloat64()
	case 5:
		out := make([]float64, r.Intn(5))
		for i := range out {
			out[i] = r.NormFloat64()
		}
		return out
	case 6:
		out := make([]string, r.Intn(5))
		for i := range out {
			out[i] = randString(r)
		}
		return out
	case 7:
		out := make(map[string]string, 3)
		for i := r.Intn(4); i > 0; i-- {
			out[randString(r)] = randString(r)
		}
		return out
	default:
		out := make(map[string]any, 3)
		for i := r.Intn(4); i > 0; i-- {
			out[randString(r)] = randValue(r, depth-1)
		}
		return out
	}
}

func randString(r *rand.Rand) string {
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func TestParityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		assertParity(t, randValue(r, 3))
	}
}

// TestDecodedBytesCapacityClamped: zero-copy []byte decodes must not
// carry spare capacity into the shared buffer — an append to a decoded
// slice has to reallocate, never overwrite sibling data in place.
func TestDecodedBytesCapacityClamped(t *testing.T) {
	enc := MustEncode(map[string]any{"a": []byte("aaaa"), "b": []byte("bbbb")})
	first := MustDecode(enc).(map[string]any)["a"].([]byte)
	if cap(first) != len(first) {
		t.Fatalf("nested []byte decode has spare capacity: len=%d cap=%d", len(first), cap(first))
	}
	_ = append(first, []byte("overwrite-attempt")...)
	got := MustDecode(enc).(map[string]any) // must still parse and be intact
	if string(got["b"].([]byte)) != "bbbb" {
		t.Fatalf("sibling corrupted by append: %q", got["b"])
	}
	top := MustDecode(MustEncode([]byte("top-level"))).([]byte)
	if cap(top) != len(top) {
		t.Fatalf("top-level []byte decode has spare capacity: len=%d cap=%d", len(top), cap(top))
	}
}

// FuzzDecode: Decode must reject or parse arbitrary input without
// panicking, whatever parses must view its input (viewsOutside finds
// nothing), and it must re-encode and decode to an equal value.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00}) // the reserved tag
	f.Add([]byte{tagBytes, 1, 2, 3})
	f.Add(MustEncode(map[string]any{"xs": []float64{1, 2}, "n": 3}))
	f.Add(MustEncode(map[string]any{"a": "a", "b": []string{"b"}, "c": map[string]string{"c": "d"}}))
	f.Add([]byte{tagMapSA, 255, 255, 255, 255})
	f.Add([]byte{tagFloats, 4, 0, 0, 0, 1})
	f.Add(MustEncode(wireProbe{S: "p", Ss: []string{"a"}, M: map[string]int64{"k": 1}}))
	f.Add([]byte{tagStruct, 200})                     // name length past the buffer
	f.Add(append([]byte{tagStruct, 7}, "no.Such"...)) // unregistered wire name
	f.Add(MustEncode(wireProbe{S: "q"})[:12])         // truncated struct body
	f.Add(append(MustEncode([]string{"a", "bc"}), 0)) // trailing byte
	f.Add(MustEncode(wireProbe{S: "r", Ss: []string{"x", "", "yz", "w"}}))
	f.Add(MustEncode(viewProbe{S: "v", L: StrListOf([]string{"k", "k1", "", "\xff"}), I: 3}))
	f.Add(MustEncode(viewProbe{S: "e"}))                                         // an empty view
	f.Add(MustEncode(viewProbe{S: "t", L: StrListOf([]string{"ab", "c"})})[:28]) // a view's first prefix cut
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err != nil {
			return
		}
		if bad := viewsOutside(data, v); len(bad) > 0 {
			t.Fatalf("decoded %q do not lie inside the input", bad)
		}
		re, err := Encode(v)
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
		v2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(v, v2) && !containsNaN(v) {
			t.Fatalf("re-encode changed value: %#v vs %#v", v, v2)
		}
	})
}

// FuzzParity drives the property test from fuzzed seeds.
func FuzzParity(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 32; i++ {
			assertParity(t, randValue(r, 3))
		}
	})
}

// containsNaN reports whether v holds a NaN anywhere (NaN != NaN makes
// DeepEqual fail spuriously).
func containsNaN(v any) bool {
	switch x := v.(type) {
	case float64:
		return math.IsNaN(x)
	case wireProbe:
		return math.IsNaN(x.F)
	case []float64:
		for _, f := range x {
			if math.IsNaN(f) {
				return true
			}
		}
	case map[string]any:
		for _, e := range x {
			if containsNaN(e) {
				return true
			}
		}
	}
	return false
}
