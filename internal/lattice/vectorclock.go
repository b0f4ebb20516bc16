package lattice

import (
	"slices"
	"strconv"
	"strings"
	"unique"
)

// VectorClock is the literal form of a vector clock (§5.2): one
// monotonically-growing logical clock per writer (function-executor
// thread) id. It is an input type only — workloads, clients and probes
// write clocks as map literals — and Freeze turns it into the Clock that
// versions, capsules and session metadata hold.
type VectorClock map[string]uint64

// Freeze returns vc as an immutable Clock; vc itself is not retained.
func (vc VectorClock) Freeze() Clock {
	if len(vc) == 0 {
		return Clock{}
	}
	e := make([]clockEntry, 0, len(vc))
	for id, n := range vc {
		e = append(e, clockEntry{id: unique.Make(id), n: n})
	}
	slices.SortFunc(e, byID)
	return Clock{e: e}
}

// Ordering is the outcome of comparing two vector clocks.
type Ordering int

// Vector-clock comparison outcomes.
const (
	Equal Ordering = iota
	Dominates
	DominatedBy
	Concurrent
)

func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Dominates:
		return "dominates"
	case DominatedBy:
		return "dominated-by"
	default:
		return "concurrent"
	}
}

// clockEntry is one writer's slot of a Clock: 16 bytes, a handle to the
// writer's name and its counter, where a string would make it 24. The
// handle points at the process's one copy of the name, which package
// unique interns; only Freeze and Tick make one.
type clockEntry struct {
	id unique.Handle[string]
	n  uint64
}

// cmpID orders writer names. Equal handles are the same name, a fast
// path; any other pair compares the names themselves.
func cmpID(a, b unique.Handle[string]) int {
	if a == b {
		return 0
	}
	return strings.Compare(a.Value(), b.Value())
}

func byID(a, b clockEntry) int { return cmpID(a.id, b.id) }

// Clock is an immutable vector clock: its entries in ascending name order,
// behind an unexported field so that nothing outside this package can
// write one. An operation that would change a clock returns a new one,
// and one that changes nothing returns its receiver, so clocks are shared
// by reference between versions, capsules and session metadata and never
// copied. Missing entries count as zero; an entry written as zero is kept
// and counts in ByteSize, Digest and String, as it did in the map form.
// The zero Clock is the empty clock.
type Clock struct {
	e []clockEntry
}

// Len reports the number of entries.
func (c Clock) Len() int { return len(c.e) }

// Compare reports how c relates to other: one merge walk over the two
// ascending entry lists, no hashing.
func (c Clock) Compare(other Clock) Ordering {
	a, b := c.e, other.e
	if len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) {
		return Equal // the same entries: a shared clock
	}
	greater, less := false, false
	for len(a) > 0 && len(b) > 0 && !(greater && less) {
		switch d := cmpID(a[0].id, b[0].id); {
		case d < 0:
			greater = greater || a[0].n > 0
			a = a[1:]
		case d > 0:
			less = less || b[0].n > 0
			b = b[1:]
		default:
			greater = greater || a[0].n > b[0].n
			less = less || a[0].n < b[0].n
			a, b = a[1:], b[1:]
		}
	}
	for _, x := range a {
		greater = greater || x.n > 0
	}
	for _, y := range b {
		less = less || y.n > 0
	}
	switch {
	case greater && less:
		return Concurrent
	case greater:
		return Dominates
	case less:
		return DominatedBy
	default:
		return Equal
	}
}

// DominatesOrEqual reports c ≥ other in the causal partial order.
func (c Clock) DominatesOrEqual(other Clock) bool {
	o := c.Compare(other)
	return o == Dominates || o == Equal
}

// HappensBefore reports c → other (strictly).
func (c Clock) HappensBefore(other Clock) bool {
	return c.Compare(other) == DominatedBy
}

// Join returns what observing other into c gives: c's entries, each
// raised to other's where that is larger, plus other's non-zero entries
// that c lacks. When other adds nothing it returns c itself; otherwise a
// first walk counts the result's entries and the second fills exactly
// that many, one allocation.
func (c Clock) Join(other Clock) Clock {
	n, adds := 0, false
	a, b := c.e, other.e
	for len(a) > 0 && len(b) > 0 {
		switch d := cmpID(a[0].id, b[0].id); {
		case d < 0:
			a = a[1:]
		case d > 0:
			if b[0].n > 0 {
				n, adds = n+1, true
			}
			b = b[1:]
		default:
			adds = adds || b[0].n > a[0].n
			a, b = a[1:], b[1:]
		}
	}
	for _, y := range b {
		if y.n > 0 {
			n, adds = n+1, true
		}
	}
	if !adds {
		return c
	}
	out := make([]clockEntry, 0, len(c.e)+n)
	a, b = c.e, other.e
	for len(a) > 0 && len(b) > 0 {
		switch d := cmpID(a[0].id, b[0].id); {
		case d < 0:
			out = append(out, a[0])
			a = a[1:]
		case d > 0:
			if b[0].n > 0 {
				out = append(out, b[0])
			}
			b = b[1:]
		default:
			out = append(out, clockEntry{id: a[0].id, n: max(a[0].n, b[0].n)})
			a, b = a[1:], b[1:]
		}
	}
	out = append(out, a...)
	for _, y := range b {
		if y.n > 0 {
			out = append(out, y)
		}
	}
	return Clock{e: out}
}

// Tick returns c with id's entry incremented (added at 1 if absent): a
// binary search and one allocation. A new entry takes the name's interned
// handle, which allocates only the first time a process names that
// writer.
func (c Clock) Tick(id string) Clock {
	i, found := slices.BinarySearchFunc(c.e, id, func(x clockEntry, id string) int { return strings.Compare(x.id.Value(), id) })
	if found {
		out := slices.Clone(c.e)
		out[i].n++
		return Clock{e: out}
	}
	out := make([]clockEntry, len(c.e)+1)
	copy(out, c.e[:i])
	out[i] = clockEntry{id: unique.Make(id), n: 1}
	copy(out[i+1:], c.e[i:])
	return Clock{e: out}
}

// nonZero returns c without its zero entries, which count as missing:
// c itself when it has none, else one allocation. It is the clock of a
// one-version capsule, and Merge joins two capsules' clocks, so no entry
// of a capsule's clock is zero.
func (c Clock) nonZero() Clock {
	zero := func(x clockEntry) bool { return x.n == 0 }
	if !slices.ContainsFunc(c.e, zero) {
		return c
	}
	return Clock{e: slices.DeleteFunc(slices.Clone(c.e), zero)}
}

// Digest returns a canonical 64-bit key for the clock: entries are
// hashed individually (FNV-1a over the id and counter, then murmur3's
// fmix64 finalizer) and summed, so the digest is the one the map form
// has, without allocating. The finalizer matters: a small counter's
// FNV-1a hash is linear in state^n, so without it two writers advancing
// by the same step can cancel in the sum. Two distinct clocks collide
// only as rarely as two 64-bit hashes do; the digest names a version in
// hash-keyed caches (the cluster's decode cache), not in
// correctness-critical comparisons.
func (c Clock) Digest() uint64 {
	var h uint64
	for _, x := range c.e {
		e := uint64(14695981039346656037) // FNV-1a offset basis
		id := x.id.Value()
		for i := 0; i < len(id); i++ {
			e ^= uint64(id[i])
			e *= 1099511628211
		}
		for s := 0; s < 64; s += 8 {
			e ^= (x.n >> s) & 0xff
			e *= 1099511628211
		}
		e ^= e >> 33
		e *= 0xFF51AFD7ED558CCD
		e ^= e >> 33
		e *= 0xC4CEB9FE1A85EC53
		h += e ^ e>>33
	}
	return h
}

// ByteSize estimates serialized size: each entry is an id plus an 8-byte
// counter. The paper notes this grows linearly with the number of writers
// that touched the key, inflating tail latency for hot keys (§6.2.1).
func (c Clock) ByteSize() int {
	n := 0
	for _, x := range c.e {
		n += len(x.id.Value()) + 8
	}
	return n
}

// String renders {id:n,…} in id order for stable logs.
func (c Clock) String() string { return string(c.appendCanonical(nil)) }

// appendCanonical appends {id:n,…}, ids ascending, to dst. Its byte
// order is the first key of a causal capsule's sibling order; the
// entries are already sorted, so only a full dst allocates.
func (c Clock) appendCanonical(dst []byte) []byte {
	dst = append(dst, '{')
	for i, x := range c.e {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(dst, x.id.Value()...), ':')
		dst = strconv.AppendUint(dst, x.n, 10)
	}
	return append(dst, '}')
}
