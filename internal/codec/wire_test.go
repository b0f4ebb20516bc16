package codec

// Tests for the struct path (tag 0x0f): round trips, gob parity
// (including inside containers, via the probe type randValue feeds the
// shared property/fuzz harness) and malformed input.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
	M  map[string]int64
}

func (w wireProbe) AppendWire(dst []byte) []byte {
	dst = AppendStr(dst, w.S)
	dst = AppendF64(dst, w.F)
	dst = AppendI64(dst, w.I)
	dst = AppendBool(dst, w.B)
	dst = AppendStrs(dst, w.Ss)
	return AppendI64Map(dst, w.M)
}

func (w *wireProbe) DecodeWire(body []byte) error {
	r := NewReader(body)
	w.S = r.Str()
	w.F = r.F64()
	w.I = r.I64()
	w.B = r.Bool()
	w.Ss = r.Strs()
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
		w.Ss, w.M = []string{}, map[string]int64{}
	default:
		w.M = map[string]int64{}
		for i := r.Intn(4); i > 0; i-- {
			w.Ss = append(w.Ss, randString(r))
			w.M[randString(r)] = r.Int63()
		}
	}
	return w
}

func TestWireStructRoundTrip(t *testing.T) {
	for _, w := range []wireProbe{
		{S: "s", F: 1.5, I: -9, B: true, Ss: []string{"a", ""}, M: map[string]int64{"k": 7, "": -1}},
		{},
		{Ss: []string{}, M: map[string]int64{}},
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
	assertParity(t, map[string]any{"m": map[string]any{"probe": wireProbe{I: 5}}, "tail": "t"})
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
	enc := MustEncode(wireProbe{S: "sss", Ss: []string{"a"}, M: map[string]int64{"k": 1}})
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

// viewProbe carries a string list read in place (Reader.StrList) between
// two other fields; gob cannot carry a StrList, so it has no gob side.
type viewProbe struct {
	S string
	L StrList
	I int64
}

func (w viewProbe) AppendWire(dst []byte) []byte {
	dst = AppendStr(dst, w.S)
	dst = w.L.Append(dst)
	return AppendI64(dst, w.I)
}

func (w *viewProbe) DecodeWire(body []byte) error {
	r := NewReader(body)
	w.S = r.Str()
	w.L = r.StrList()
	w.I = r.I64()
	return r.Done()
}

func init() { RegisterStruct[viewProbe, *viewProbe]("codec.viewProbe") }

// strListElems copies a list's elements out, walked as the empty list's
// Diff; nil for the empty list.
func strListElems(l StrList) []string {
	var out []string
	StrList{}.Diff(l, nil, func(s []byte) { out = append(out, string(s)) })
	return out
}

// TestStrListMatchesStrs holds Reader.StrList to Reader.Strs, and both
// to oracleStrs (one Str per element) as the oracle: all accept and
// reject the same bodies (Done's verdict), an accepted body yields the
// same elements, and the view re-encodes to the bytes it consumed.
func TestStrListMatchesStrs(t *testing.T) {
	le := func(ws ...uint32) []byte {
		var b []byte
		for _, w := range ws {
			b = AppendU32(b, w)
		}
		return b
	}
	r := rand.New(rand.NewSource(50))
	bodies := map[string][]byte{
		"count 0":             le(0),
		"no count":            nil,
		"short count":         {1, 0},
		"count past the body": le(3, 0, 0),
		"huge count":          le(0xffffffff, 0),
		"truncated prefix":    append(le(2, 1), 'a', 1, 0),
		"prefix past the end": append(le(1, 5), "abcd"...),
		"huge prefix":         append(le(1, 0xffffffff), "abcd"...),
		"trailing byte":       append(AppendStrs(nil, []string{"a", "bc"}), 0),
		"count 0, trailing":   le(0, 7),
		"empty elements":      AppendStrs(nil, []string{"", "", ""}),
		"high bytes":          AppendStrs(nil, []string{"\x80", "k\xff", "\xc3\xa9"}),
	}
	for i := 0; i < 100; i++ {
		xs := make([]string, r.Intn(20))
		for j := range xs {
			xs[j] = randString(r)
		}
		body := AppendStrs(nil, xs)
		bodies[fmt.Sprintf("random %d", i)] = body
		bodies[fmt.Sprintf("random %d, cut", i)] = body[:r.Intn(len(body))]
	}
	for name, body := range bodies {
		oracle, want, got := NewReader(body), NewReader(body), NewReader(body)
		os := oracleStrs(&oracle)
		ws := want.Strs()
		l := got.StrList()
		oerr, werr, gerr := oracle.Done(), want.Done(), got.Done()
		if (oerr == nil) != (werr == nil) || (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: oracle err %v, Strs err %v, StrList err %v", name, oerr, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if g := strListElems(l); !reflect.DeepEqual(g, ws) || !reflect.DeepEqual(ws, os) {
			t.Fatalf("%s: StrList walks %q, Strs read %q, the oracle %q", name, g, ws, os)
		}
		if re := l.Append(nil); !bytes.Equal(re, body) {
			t.Fatalf("%s: re-encodes as %x, was %x", name, re, body)
		}
	}
}

// TestStrListInPlaceAllocationFree: a view's walk allocates nothing and
// its elements alias the body; Same tells one view from an equal list
// held apart, and holds a StrListOf list Same only as empty.
func TestStrListInPlaceAllocationFree(t *testing.T) {
	xs := make([]string, 100)
	for i := range xs {
		xs[i] = fmt.Sprintf("key-%d", i)
	}
	body := AppendStrs(nil, xs)
	r := NewReader(body)
	l := r.StrList()
	var first []byte
	n := 0
	count := func(s []byte) {
		if n++; n == 1 {
			first = s
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { StrList{}.Diff(l, nil, count) }); allocs != 0 {
		t.Errorf("walking a 100-element view allocates %.1f times, want 0", allocs)
	}
	if &first[0] != &body[4+4] {
		t.Error("a view's first element does not alias the body")
	}
	again := NewReader(body)
	apart := NewReader(bytes.Clone(body))
	shared := StrListOf(xs)
	for _, c := range []struct {
		name string
		a, b StrList
		same bool
	}{
		{"one view", l, l, true},
		{"two views of one body", l, again.StrList(), true},
		{"views of equal bodies", l, apart.StrList(), false},
		{"one slice", shared, StrListOf(xs), false},
		{"a view and a slice", l, shared, false},
		{"a shorter list", l, StrListOf(xs[1:]), false},
		{"empty lists", StrList{}, StrListOf(nil), true},
	} {
		if got := c.a.Same(c.b); got != c.same {
			t.Errorf("%s: Same = %v, want %v", c.name, got, c.same)
		}
	}
	if got := strListElems(shared); !reflect.DeepEqual(got, xs) {
		t.Errorf("a StrListOf list walks %q", got)
	}
}

// TestStrListDiff holds Diff to a set difference on random ascending
// lists drawn from keys that are byte-prefixes of others, the empty key
// and keys with bytes of 0x80 and above, as views and as StrListOf lists:
// left sees exactly the keys only the first list holds, entered exactly
// those only the second holds, each once and in ascending order.
func TestStrListDiff(t *testing.T) {
	pool := []string{"", "k", "k1", "k10", "k1\x80", "k\x7f", "k\x80", "k\xff", "\xc3\xa9", "z"}
	slices.Sort(pool)
	r := rand.New(rand.NewSource(51))
	draw := func() []string {
		var out []string
		for _, k := range pool {
			if r.Intn(2) == 0 {
				out = append(out, k)
			}
		}
		return out
	}
	view := func(xs []string) StrList {
		rd := NewReader(AppendStrs(nil, xs))
		return rd.StrList()
	}
	for i := 0; i < 500; i++ {
		was, now := draw(), draw()
		var wantLeft, wantEntered []string
		for _, k := range was {
			if !slices.Contains(now, k) {
				wantLeft = append(wantLeft, k)
			}
		}
		for _, k := range now {
			if !slices.Contains(was, k) {
				wantEntered = append(wantEntered, k)
			}
		}
		for _, pair := range [][2]StrList{{view(was), view(now)}, {StrListOf(was), StrListOf(now)}, {view(was), StrListOf(now)}} {
			var left, entered []string
			pair[0].Diff(pair[1], func(s []byte) { left = append(left, string(s)) }, func(s []byte) { entered = append(entered, string(s)) })
			if !slices.Equal(left, wantLeft) || !slices.Equal(entered, wantEntered) {
				t.Fatalf("Diff(%q, %q): left %q, entered %q; want %q, %q", was, now, left, entered, wantLeft, wantEntered)
			}
		}
	}
}
