package codec

// Tests for the struct path (tag 0x0f): round trips, gob parity
// (including inside containers, via the probe type randValue feeds the
// shared property/fuzz harness) and malformed input.

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// wireProbe exercises every field kind the Append*/Reader helpers
// support; it stands in for the runtime's wire structs, which live in
// packages this one cannot import.
type wireProbe struct {
	S  string
	F  float64
	I  int64
	B  bool
	Ss []string
	Us []uint64
	M  map[string]int64
}

func (w wireProbe) AppendWire(dst []byte) []byte {
	dst = AppendStr(dst, w.S)
	dst = AppendF64(dst, w.F)
	dst = AppendI64(dst, w.I)
	dst = AppendBool(dst, w.B)
	dst = AppendStrs(dst, w.Ss)
	dst = AppendU64s(dst, w.Us)
	return AppendI64Map(dst, w.M)
}

func (w *wireProbe) DecodeWire(body []byte) error {
	r := NewReader(body)
	w.S = r.Str()
	w.F = r.F64()
	w.I = r.I64()
	w.B = r.Bool()
	w.Ss = r.Strs()
	w.Us = r.U64s()
	w.M = r.I64Map()
	return r.Done()
}

func init() {
	RegisterStruct[wireProbe, *wireProbe]("codec.wireProbe")
	gob.Register(wireProbe{}) // for the parity harness's gob side
}

// randWireProbe builds a random probe, mixing nil and empty containers
// so the gob empty-field conventions stay covered.
func randWireProbe(r *rand.Rand) wireProbe {
	w := wireProbe{S: randString(r), F: r.NormFloat64(), I: r.Int63() - (1 << 40), B: r.Intn(2) == 0}
	switch r.Intn(3) {
	case 0: // nil containers
	case 1:
		w.Ss, w.Us, w.M = []string{}, []uint64{}, map[string]int64{}
	default:
		w.M = map[string]int64{}
		for i := r.Intn(4); i > 0; i-- {
			w.Ss = append(w.Ss, randString(r))
			w.Us = append(w.Us, r.Uint64())
			w.M[randString(r)] = r.Int63()
		}
	}
	return w
}

func TestWireStructRoundTrip(t *testing.T) {
	for _, w := range []wireProbe{
		{S: "s", F: 1.5, I: -9, B: true, Ss: []string{"a", ""}, Us: []uint64{0, 1 << 63, ^uint64(0)}, M: map[string]int64{"k": 7, "": -1}},
		{},
		{Ss: []string{}, Us: []uint64{}, M: map[string]int64{}},
	} {
		enc := MustEncode(w)
		if enc[0] != tagStruct {
			t.Fatalf("probe missed the struct path: tag %#x", enc[0])
		}
		got := MustDecode(enc).(wireProbe)
		want := gobRoundTrip(t, w).(wireProbe) // gob-parity reference
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("struct/gob divergence:\n struct: %#v\n gob:    %#v", got, want)
		}
	}
}

func TestWireStructParityInContainers(t *testing.T) {
	assertParity(t, map[string]any{"probe": wireProbe{S: "x", Ss: []string{"y"}}, "n": 3})
	assertParity(t, []any{wireProbe{I: 5}, "tail"})
}

func TestWireStructPropertyParity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		assertParity(t, randWireProbe(r))
	}
}

func TestDecodeUnregisteredWireName(t *testing.T) {
	enc := append([]byte{tagStruct, 7}, "no.Such"...)
	if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), "unregistered") {
		t.Fatalf("err = %v, want unregistered-wire-struct error", err)
	}
}

func TestDecodeTruncatedWireStruct(t *testing.T) {
	enc := MustEncode(wireProbe{S: "sss", Ss: []string{"a"}, Us: []uint64{42}, M: map[string]int64{"k": 1}})
	for cut := 1; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(enc))
		}
	}
}

// TestEncodeAllocsStructPath pins the pooled encode path: one
// allocation per Encode (the returned buffer), with the build scratch
// coming from the pool.
func TestEncodeAllocsStructPath(t *testing.T) {
	w := wireProbe{S: "steady", Ss: []string{"a", "b"}, M: map[string]int64{"k": 1}}
	MustEncode(w) // warm the scratch pool
	allocs := testing.AllocsPerRun(100, func() { MustEncode(w) })
	// 1 for the copied-out buffer, plus amortized noise from the sorted
	// key walk.
	if allocs > 3 {
		t.Fatalf("struct encode: %.1f allocs/op, want <= 3", allocs)
	}
}

// TestWireStringListAllocations is the tripwire for a wire struct's
// string list allocating per element again: decoding a probe whose Ss
// holds 10 strings or 1,000 allocates the same 4 times (the struct
// DecodeWire fills and its box, then the list's one string copy and its
// slice).
func TestWireStringListAllocations(t *testing.T) {
	for _, n := range []int{10, 1000} {
		w := wireProbe{Ss: make([]string, n)}
		for i := range w.Ss {
			w.Ss[i] = fmt.Sprintf("key-%d", i)
		}
		enc := MustEncode(w)
		if got := testing.AllocsPerRun(100, func() { MustDecode(enc) }); got != 4 {
			t.Errorf("decoding a wire struct with a %d-element string list allocates %.0f times, want 4", n, got)
		}
	}
}
