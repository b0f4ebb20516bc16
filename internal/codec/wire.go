package codec

// The struct path (tag 0x0f). Control-plane wire structs — metrics
// publications, DAG topologies, workload results — lay out their fields
// by hand through the Append*/Reader helpers below and register a decode
// factory under a stable wire name; encoding and decoding touch no
// reflection beyond one type lookup.
//
// See the package comment for the wire format and doc.go for a guide to
// defining a wire struct.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
)

// Struct is the reflection-free wire interface. AppendWire lays the
// struct's fields out onto dst (conventionally with the codec.Append*
// helpers) and returns the extended buffer; DecodeWire parses exactly
// what AppendWire wrote (conventionally through a codec.Reader),
// consuming the whole body. Implement AppendWire on the value receiver
// and DecodeWire on the pointer receiver; RegisterStruct wires both up.
type Struct interface {
	AppendWire(dst []byte) []byte
	DecodeWire(body []byte) error
}

// structEntry is one registered wire struct.
type structEntry struct {
	name   string
	decode func(body []byte) (any, error)
}

var (
	structsByType = make(map[reflect.Type]*structEntry)
	structsByName = make(map[string]*structEntry)
)

// RegisterStruct makes T encodable under the given wire name
// (conventionally "pkg.Type"); an unregistered struct is an Encode
// error. The name travels in the encoding, so it must be stable and
// unique; registration normally happens in the defining package's init.
// Values encode as T (not *T), and Decode returns a T; T's AppendWire is
// on the value receiver, so Encode calls it on the boxed value.
func RegisterStruct[T wireAppender, PT interface {
	*T
	Struct
}](name string) {
	if len(name) == 0 || len(name) > 255 {
		panic(fmt.Sprintf("codec: RegisterStruct name %q: must be 1..255 bytes", name))
	}
	typ := reflect.TypeFor[T]()
	if e, dup := structsByName[name]; dup {
		panic(fmt.Sprintf("codec: RegisterStruct name %q already used by %v", name, e))
	}
	if _, dup := structsByType[typ]; dup {
		panic(fmt.Sprintf("codec: RegisterStruct type %v already registered", typ))
	}
	e := &structEntry{
		name: name,
		decode: func(body []byte) (any, error) {
			var t T
			if err := PT(&t).DecodeWire(body); err != nil {
				return nil, fmt.Errorf("codec: decode %s: %w", name, err)
			}
			return t, nil
		},
	}
	structsByType[typ] = e
	structsByName[name] = e
}

// wireAppender is the encode half of Struct, implementable by the value
// receiver: asserting it on the already-boxed value avoids copying the
// struct out of the interface (and re-boxing it) per encode.
type wireAppender interface{ AppendWire(dst []byte) []byte }

// appendStruct appends the tagged encoding of a registered wire
// struct: tag, one-byte name length, name, fields.
func appendStruct(dst []byte, e *structEntry, v any) []byte {
	dst = append(dst, tagStruct, byte(len(e.name)))
	dst = append(dst, e.name...)
	return v.(wireAppender).AppendWire(dst)
}

// decodeStruct parses a tagStruct body (everything after the tag byte).
func decodeStruct(body []byte) (any, error) {
	if len(body) < 1 {
		return nil, errTruncated(tagStruct)
	}
	n := int(body[0])
	if 1+n > len(body) {
		return nil, errTruncated(tagStruct)
	}
	e, ok := structsByName[string(body[1:1+n])]
	if !ok {
		return nil, fmt.Errorf("codec: decode: unregistered wire struct %q", string(body[1:1+n]))
	}
	return e.decode(body[1+n:])
}

// --- Append helpers ------------------------------------------------------
//
// Field layouts for AppendWire implementations. All integers are
// little-endian and fixed-width; variable-size fields carry a u32
// length/count prefix. Maps are emitted in sorted key order so struct
// encodings are deterministic (simulation reproducibility depends on
// byte-identical wire traffic for identical runs).

// AppendU32 appends a u32 count or length prefix.
func AppendU32(dst []byte, n uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, n)
}

// AppendI64 appends a fixed-width int64.
func AppendI64(dst []byte, n int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(n))
}

// AppendF64 appends a float64 as IEEE 754 bits.
func AppendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendBool appends a bool as one byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendStr appends a u32-length-prefixed string.
func AppendStr(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendStrs appends a u32 count followed by each string. Nil and empty
// slices encode identically (count 0) and decode as nil, matching how
// gob round-trips empty struct fields.
func AppendStrs(dst []byte, xs []string) []byte {
	dst = AppendU32(dst, uint32(len(xs)))
	for _, s := range xs {
		dst = AppendStr(dst, s)
	}
	return dst
}

// AppendI64Map appends a presence byte, then a u32 count followed by
// (string key, int64 value) pairs in sorted key order. Unlike slices,
// maps keep their nilness on the wire: gob transmits zero-length
// non-nil maps (they decode non-nil empty) while omitting nil ones, and
// the struct path preserves that parity.
func AppendI64Map(dst []byte, m map[string]int64) []byte {
	if m == nil {
		return AppendBool(dst, false)
	}
	dst = AppendBool(dst, true)
	dst = AppendU32(dst, uint32(len(m)))
	for _, k := range sortedKeysI64(m) {
		dst = AppendStr(dst, k)
		dst = AppendI64(dst, m[k])
	}
	return dst
}

// sortedKeysI64 collects m's keys sorted, with a plain range (the
// iterator helpers allocate closures on a path hot enough to care).
func sortedKeysI64(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// --- Reader --------------------------------------------------------------

// Reader parses a wire-struct body field by field, mirroring the
// Append* helpers. Errors are sticky: after the first malformed field
// every subsequent read returns a zero value, and Done reports the
// error, so DecodeWire implementations read unconditionally and check
// once at the end. Only StrList's view aliases the body; the rest copy,
// unlike Decode's generic values, because the control plane keeps these
// fields as keys of long-lived tables that must not pin a payload.
type Reader struct {
	body []byte
	err  error
}

// NewReader wraps a wire-struct body.
func NewReader(body []byte) Reader { return Reader{body: body} }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("truncated wire struct")
	}
}

// U32 reads a u32 count or length prefix.
func (r *Reader) U32() uint32 {
	if r.err != nil || len(r.body) < 4 {
		r.fail()
		return 0
	}
	n := binary.LittleEndian.Uint32(r.body)
	r.body = r.body[4:]
	return n
}

// I64 reads a fixed-width int64.
func (r *Reader) I64() int64 {
	if r.err != nil || len(r.body) < 8 {
		r.fail()
		return 0
	}
	n := binary.LittleEndian.Uint64(r.body)
	r.body = r.body[8:]
	return int64(n)
}

// F64 reads a float64.
func (r *Reader) F64() float64 {
	return math.Float64frombits(uint64(r.I64()))
}

// Bool reads a one-byte bool.
func (r *Reader) Bool() bool {
	if r.err != nil || len(r.body) < 1 {
		r.fail()
		return false
	}
	b := r.body[0]
	r.body = r.body[1:]
	return b != 0
}

// Str reads a u32-length-prefixed string.
func (r *Reader) Str() string {
	n := int(r.U32())
	// n < 0 guards 32-bit ints, where a >=2^31 prefix wraps negative and
	// would slip past the length check into a slice-bounds panic.
	if r.err != nil || n < 0 || n > len(r.body) {
		r.fail()
		return ""
	}
	s := string(r.body[:n])
	r.body = r.body[n:]
	return s
}

// Count reads a u32 element count and sanity-checks it against the
// remaining bytes (each element needs at least minElem bytes), so
// malformed input cannot drive a huge allocation. The bound is
// computed by division, never an overflowable multiply.
func (r *Reader) Count(minElem int) int {
	n := int(r.U32())
	if r.err != nil || n < 0 || (minElem > 0 && n > len(r.body)/minElem) {
		r.fail()
		return 0
	}
	return n
}

// Strs reads a string slice written by AppendStrs; count 0 decodes as
// nil (gob struct-field parity). The list is one copy of its string
// bytes, shared by its elements: two allocations (the copy and the
// slice) whatever its length, and none of the body stays referenced.
func (r *Reader) Strs() []string { return r.StrList().strings() }

// StrList reads a string slice written by AppendStrs as a view of the
// body: it accepts exactly what Strs does, allocates and copies nothing,
// and keeps the body referenced while the view lives.
func (r *Reader) StrList() StrList {
	l, rest, ok := cutStrList(r.body, r.Count(4))
	if r.err != nil || !ok {
		r.fail()
		return StrList{}
	}
	r.body = rest
	return l
}

// StrList is a string list that encodes as AppendStrs does: a []string
// (StrListOf), or a read-only view of a decoded body (Reader.StrList).
// The zero StrList is the empty list.
type StrList struct {
	strs []string // StrListOf's elements
	n    int      // the element count
	enc  []byte   // a view's elements in AppendStrs's layout, count excluded
}

// StrListOf returns xs as a StrList; xs must not change while it is used.
func StrListOf(xs []string) StrList { return StrList{strs: xs, n: len(xs)} }

// Append appends l as AppendStrs does.
func (l StrList) Append(dst []byte) []byte {
	if l.enc == nil {
		return AppendStrs(dst, l.strs)
	}
	return append(AppendU32(dst, uint32(l.n)), l.enc...)
}

// Diff merge-walks l and m, both ascending in byte order, and calls left
// with each element only l holds and entered with each only m holds; the
// empty list's Diff with m walks m. A view's elements alias its body and
// are walked without allocating (a StrListOf list is encoded first).
func (l StrList) Diff(m StrList, left, entered func([]byte)) {
	a, b := l.elems(), m.elems()
	for len(a) > 0 || len(b) > 0 {
		x, restA := cutElem(a)
		y, restB := cutElem(b)
		switch c := bytes.Compare(x, y); {
		case len(b) == 0 || len(a) > 0 && c < 0:
			left(x)
			a = restA
		case len(a) == 0 || c > 0:
			entered(y)
			b = restB
		default:
			a, b = restA, restB
		}
	}
}

// Same reports, without reading an element, whether l and m are views of
// the same bytes, or both empty. A StrListOf list is Same only as empty.
func (l StrList) Same(m StrList) bool {
	return l.n == m.n && (l.n == 0 || len(l.enc) > 0 && len(m.enc) > 0 && &l.enc[0] == &m.enc[0])
}

// I64Map reads a map written by AppendI64Map; a nil map round-trips
// nil, a present map (even empty) round-trips non-nil (gob
// struct-field parity).
func (r *Reader) I64Map() map[string]int64 {
	if !r.Bool() || r.err != nil {
		return nil
	}
	n := r.Count(12)
	if r.err != nil {
		return nil
	}
	out := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		k := r.Str()
		v := r.I64()
		if r.err != nil {
			return nil
		}
		out[k] = v
	}
	return out
}

// Err reports the first parse error, if any.
func (r *Reader) Err() error { return r.err }

// Done finishes a DecodeWire: it reports the first parse error, or an
// error if unconsumed bytes remain (a struct must parse exactly what
// AppendWire wrote — trailing garbage means a schema mismatch).
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.body) != 0 {
		return fmt.Errorf("%d trailing bytes after last field", len(r.body))
	}
	return nil
}
