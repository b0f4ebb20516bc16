// Package codec serializes user-level values for storage in Anna and for
// argument/result passing between Cloudburst functions. The paper uses
// cloudpickle for Python objects; this package plays the same role for
// Go values, with realistic serialized sizes for bandwidth accounting.
//
// # Wire format
//
// Every encoding starts with a one-byte type tag, and there is exactly
// one encoder. The supported types are nil, []byte, string, int,
// float64, bool, []float64, []string, map[string]string, map[string]any
// (its values drawn from the same list, recursively) and any struct
// registered with RegisterStruct. Encode of anything else — an int64, a
// []int, an []any, an unregistered struct, at the top level or nested in
// a map[string]any — returns an error naming the type; nothing is
// serialized by reflection.
//
//	0x00 reserved| never written; decodes to an "unknown tag" error
//	0x01 nil     | nothing follows
//	0x02 []byte  | raw bytes to end of buffer
//	0x03 string  | raw bytes to end of buffer
//	0x04 int     | 8 bytes little-endian two's complement
//	0x05 reserved| never written
//	0x06 float64 | 8 bytes little-endian IEEE 754 bits
//	0x07 bool    | 1 byte, 0 or 1
//	0x08 []float64        | u32 count, then count x 8 bytes LE bits
//	0x09 reserved         | never written
//	0x0a []string         | u32 count, then count x (u32 len, bytes)
//	0x0b reserved         | never written
//	0x0c map[string]string| u32 count, then count x (u32 klen, key,
//	                      |   u32 vlen, value), sorted by key
//	0x0d map[string]any   | u32 count, then count x (u32 klen, key,
//	                      |   u32 vlen, encoding), sorted by key
//	0x0e reserved         | never written
//	0x0f wire struct      | u8 name length, registered wire name, then
//	                      |   the struct's hand-laid-out fields
//
// The gaps at 0x05, 0x09, 0x0b and 0x0e are left open rather than closed
// up, so the other tags, and with them every encoding's bytes, stay
// fixed; each decodes to an "unknown tag" error, as 0x00 does. A
// map[string]any's values are full encodings themselves, so one holding
// a wire struct round-trips. Map entries are emitted in sorted key order
// so encoding is deterministic, which run-to-run-reproducible simulation
// output depends on.
//
// Tag 0x0f is the struct path: a struct that implements the two-method
// Struct interface (AppendWire/DecodeWire) and registers a wire name via
// RegisterStruct encodes as its name followed by hand-laid-out fields,
// with no reflection beyond one type lookup. The field layout is
// whatever AppendWire writes, conventionally built from the Append*
// helpers (fixed-width little-endian numbers, u32-length-prefixed
// strings, u32-counted slices/maps in sorted key order); see wire.go and
// the "Defining a wire struct" section of the module's doc.go.
//
// Decoding follows gob's conventions for empty values (the package's
// parity tests compare against a real gob round trip): zero-length
// slices decode as nil slices, zero-entry maps as non-nil empty maps.
//
// # Zero-copy
//
// One rule: a generic value views its payload, a wire struct copies.
// Decode copies no bytes for a []byte, a string, a []string's elements,
// or a map's string keys and values, at any depth: each aliases the
// input buffer. Capsule payloads are immutable by convention (see the
// lattice package) and already held by the caches, so a view keeps
// alive only bytes that are live anyway, as a decoded []byte always
// has. A wire struct's string fields (Reader.Str, Reader.Strs) are
// copies, since the control plane keeps them as long-lived map keys;
// its StrList fields are views. Callers that need to mutate a decoded
// value must copy it first; the runtime itself never does.
package codec

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

// Type tags; see the package comment for the wire format. 0x00, 0x05,
// 0x09, 0x0b and 0x0e are reserved: never written, and an "unknown tag"
// error on decode.
const (
	tagNil     = 0x01
	tagBytes   = 0x02
	tagString  = 0x03
	tagInt     = 0x04
	tagFloat64 = 0x06
	tagBool    = 0x07
	tagFloats  = 0x08
	tagStrings = 0x0a
	tagMapSS   = 0x0c
	tagMapSA   = 0x0d
	tagStruct  = 0x0f
)

// scratchPool recycles the build buffers Encode uses for variable-size
// values; maxScratch caps how large a grown buffer the pool retains
// (one figure workload encodes multi-MB values — those must not pin
// their peak size in the pool forever).
var scratchPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

const maxScratch = 1 << 20

// Encode serializes v. A value of an unsupported type (see the package
// comment), at any depth, is an error.
func Encode(v any) ([]byte, error) {
	if n, exact := exactSize(v); exact {
		out, err := appendValue(make([]byte, 0, n), v)
		if err != nil {
			return nil, fmt.Errorf("codec: encode %T: %w", v, err)
		}
		return out, nil
	}
	// Variable-size values (composites, wire structs) build in a pooled
	// scratch buffer and copy out exactly sized: one allocation per
	// Encode no matter how often the encoding grew.
	sp := scratchPool.Get().(*[]byte)
	buf, err := appendValue((*sp)[:0], v)
	if err != nil {
		scratchPool.Put(sp)
		return nil, fmt.Errorf("codec: encode %T: %w", v, err)
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	if cap(buf) <= maxScratch {
		*sp = buf[:0] // keep the grown array for the next Encode
	}
	scratchPool.Put(sp)
	return out, nil
}

// MustEncode serializes v and panics on failure; use it for values whose
// encodability is a program invariant (benchmark workloads, test
// fixtures).
func MustEncode(v any) []byte {
	b, err := Encode(v)
	if err != nil {
		panic(err)
	}
	return b
}

// exactSize returns the encoded size for the flat types whose
// size is knowable up front; everything else builds in a pooled scratch
// buffer.
func exactSize(v any) (int, bool) {
	switch x := v.(type) {
	case nil:
		return 1, true
	case bool:
		return 2, true
	case int, float64:
		return 9, true
	case []byte:
		return 1 + len(x), true
	case string:
		return 1 + len(x), true
	case []float64:
		return 5 + 8*len(x), true
	}
	return 0, false
}

// appendValue appends v's tagged encoding to dst.
func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case []byte:
		dst = append(dst, tagBytes)
		return append(dst, x...), nil
	case string:
		dst = append(dst, tagString)
		return append(dst, x...), nil
	case int:
		dst = append(dst, tagInt)
		return binary.LittleEndian.AppendUint64(dst, uint64(x)), nil
	case float64:
		dst = append(dst, tagFloat64)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x)), nil
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(dst, tagBool, b), nil
	case []float64:
		dst = append(dst, tagFloats)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(x)))
		for _, f := range x {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
		return dst, nil
	case []string:
		dst = append(dst, tagStrings)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(x)))
		for _, s := range x {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
			dst = append(dst, s...)
		}
		return dst, nil
	case map[string]string:
		dst = append(dst, tagMapSS)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(x)))
		for _, k := range sortedKeysSS(x) {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(k)))
			dst = append(dst, k...)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(x[k])))
			dst = append(dst, x[k]...)
		}
		return dst, nil
	case map[string]any:
		dst = append(dst, tagMapSA)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(x)))
		for _, k := range sortedKeysSA(x) {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(k)))
			dst = append(dst, k...)
			var err error
			if dst, err = appendBlob(dst, x[k]); err != nil {
				return nil, err
			}
		}
		return dst, nil
	}
	if e, ok := structsByType[reflect.TypeOf(v)]; ok {
		return appendStruct(dst, e, v), nil
	}
	return nil, fmt.Errorf("unsupported type %T: implement codec.Struct and register it with codec.RegisterStruct", v)
}

// appendBlob appends a length-prefixed full encoding of v (a
// map[string]any value's format).
func appendBlob(dst []byte, v any) ([]byte, error) {
	lenAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // patched below
	dst, err := appendValue(dst, v)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst, nil
}

func sortedKeysSS(m map[string]string) []string { return slices.Sorted(maps.Keys(m)) }

func sortedKeysSA(m map[string]any) []string { return slices.Sorted(maps.Keys(m)) }

// errTruncated reports malformed input.
func errTruncated(tag byte) error {
	return fmt.Errorf("codec: decode: truncated input (tag %#x)", tag)
}

// Decode deserializes a value produced by Encode. One rule: a generic
// value views data and a wire struct copies. A []byte and every string
// (a []string's elements and a map's keys and values, at any depth)
// alias data, so data must never be written again while they live; a
// wire struct's Str and Strs fields are copies, since the control plane
// keeps them as long-lived map keys. Bytes left over after a container's
// last element are an error, as they are after a fixed-size value's.
func Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("codec: decode: empty input")
	}
	tag, body := data[0], data[1:]
	switch tag {
	case tagStruct:
		return decodeStruct(body)
	case tagNil:
		return nil, nil
	case tagBytes:
		if len(body) == 0 {
			return []byte(nil), nil // gob parity: empty slices decode nil
		}
		// Clamp capacity: the zero-copy slice must not let an append
		// reach into the shared buffer beyond the value's own bytes.
		return body[:len(body):len(body)], nil
	case tagString:
		return view(body), nil
	case tagInt:
		if len(body) != 8 {
			return nil, errTruncated(tag)
		}
		return int(binary.LittleEndian.Uint64(body)), nil
	case tagFloat64:
		if len(body) != 8 {
			return nil, errTruncated(tag)
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(body)), nil
	case tagBool:
		if len(body) != 1 {
			return nil, errTruncated(tag)
		}
		return body[0] != 0, nil
	case tagFloats:
		n, body, err := readCount(tag, body, 8)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return []float64(nil), nil
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
		return out, nil
	case tagStrings:
		n, body, err := readCount(tag, body, 0)
		if err != nil {
			return nil, err
		}
		l, rest, ok := cutStrList(body, n)
		if !ok || len(rest) != 0 {
			return nil, errTruncated(tag)
		}
		return l.views(), nil
	case tagMapSS:
		n, body, err := readCount(tag, body, 0)
		if err != nil {
			return nil, err
		}
		out := make(map[string]string, n)
		for i := 0; i < n; i++ {
			var k, v []byte
			if k, body, err = readChunk(tag, body); err != nil {
				return nil, err
			}
			if v, body, err = readChunk(tag, body); err != nil {
				return nil, err
			}
			out[view(k)] = view(v)
		}
		if len(body) != 0 {
			return nil, errTruncated(tag)
		}
		return out, nil
	case tagMapSA:
		n, body, err := readCount(tag, body, 0)
		if err != nil {
			return nil, err
		}
		out := make(map[string]any, n)
		for i := 0; i < n; i++ {
			var k, blob []byte
			if k, body, err = readChunk(tag, body); err != nil {
				return nil, err
			}
			if blob, body, err = readChunk(tag, body); err != nil {
				return nil, err
			}
			v, err := Decode(blob)
			if err != nil {
				return nil, err
			}
			out[view(k)] = v
		}
		if len(body) != 0 {
			return nil, errTruncated(tag)
		}
		return out, nil
	}
	return nil, fmt.Errorf("codec: decode: unknown tag %#x", data[0])
}

// readCount reads a u32 element count and sanity-checks it against the
// remaining bytes (each element needs at least elemSize bytes, or, for
// variable-size elements, a 4-byte length prefix).
func readCount(tag byte, body []byte, elemSize int) (int, []byte, error) {
	if len(body) < 4 {
		return 0, nil, errTruncated(tag)
	}
	n := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	min := elemSize
	if min == 0 {
		min = 4
	}
	if n < 0 || n*min > len(body) {
		return 0, nil, errTruncated(tag)
	}
	if elemSize > 0 && n*elemSize != len(body) {
		return 0, nil, errTruncated(tag)
	}
	return n, body, nil
}

// readChunk reads one u32-length-prefixed chunk.
func readChunk(tag byte, body []byte) (chunk, rest []byte, err error) {
	if len(body) < 4 {
		return nil, nil, errTruncated(tag)
	}
	n := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	if n < 0 || n > len(body) {
		return nil, nil, errTruncated(tag)
	}
	// Capacity-clamped so zero-copy decodes of nested values cannot
	// alias the sibling data that follows them in the buffer.
	return body[:n:n], body[n:], nil
}

// cutStrList cuts n u32-length-prefixed strings off the front of body
// as a view of body, and returns it with the bytes that follow; n = 0
// yields the empty list. ok is false when n is negative or larger than
// body could hold (each element needs a 4-byte prefix), or a prefix runs
// past the end. Every string-list reader checks its input here.
func cutStrList(body []byte, n int) (l StrList, rest []byte, ok bool) {
	// n < 0 guards 32-bit ints, where a >=2^31 count or prefix wraps
	// negative; the bound is a division, never an overflowable multiply.
	if n < 0 || n > len(body)/4 {
		return StrList{}, nil, false
	}
	rest = body
	for i := 0; i < n; i++ {
		if len(rest) < 4 {
			return StrList{}, nil, false
		}
		if k := int(binary.LittleEndian.Uint32(rest)); k < 0 || k > len(rest)-4 {
			return StrList{}, nil, false
		}
		_, rest = cutElem(rest)
	}
	if n == 0 {
		return StrList{}, rest, true
	}
	m := len(body) - len(rest)
	return StrList{n: n, enc: body[:m:m]}, rest, true
}

// elems returns l's elements as a view holds them, encoding StrListOf's.
func (l StrList) elems() []byte {
	if l.enc == nil && l.n > 0 {
		return AppendStrs(nil, l.strs)[4:]
	}
	return l.enc
}

// cutElem cuts the first element off elems, which cutStrList checked.
func cutElem(elems []byte) (elem, rest []byte) {
	if len(elems) == 0 {
		return nil, nil
	}
	k := 4 + int(binary.LittleEndian.Uint32(elems))
	return elems[4:k:k], elems[k:]
}

// views returns the view l's elements as strings over its bytes, which
// must never be written again: one allocation, the slice, whatever l's
// length; nil when l is empty.
func (l StrList) views() []string {
	if l.n == 0 {
		return nil
	}
	out := make([]string, 0, l.n)
	StrList{}.Diff(l, nil, func(s []byte) { out = append(out, view(s)) })
	return out
}

// strings returns the view l's elements as substrings of one copy of
// their bytes (the prefixes are not copied): two allocations, the copy
// and the slice, whatever l's length; nil when l is empty.
func (l StrList) strings() []string {
	out := l.views()
	// Grown to the exact total, the builder never reallocates, so every
	// String() below views the same array, and each element is the tail
	// just written.
	var b strings.Builder
	b.Grow(len(l.enc) - 4*l.n)
	for i, s := range out {
		b.WriteString(s)
		out[i] = b.String()[b.Len()-len(s):]
	}
	return out
}

// view returns b as a string over its bytes, which must never be written
// again; an empty b is "", so it keeps no buffer alive.
func view(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// MustDecode deserializes and panics on failure.
func MustDecode(data []byte) any {
	v, err := Decode(data)
	if err != nil {
		panic(err)
	}
	return v
}
