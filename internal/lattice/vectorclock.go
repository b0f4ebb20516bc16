package lattice

import (
	"slices"
	"strconv"
)

// VectorClock identifies a key version causally (§5.2): one
// monotonically-growing logical clock per writer (function-executor
// thread) id.
type VectorClock map[string]uint64

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

// Compare reports how vc relates to other. Missing entries count as zero.
func (vc VectorClock) Compare(other VectorClock) Ordering {
	greater, less := false, false
	for id, v := range vc {
		switch ov := other[id]; {
		case v > ov:
			greater = true
		case v < ov:
			less = true
		}
	}
	for id, ov := range other {
		if _, ok := vc[id]; !ok && ov > 0 {
			less = true
		}
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

// DominatesOrEqual reports vc ≥ other in the causal partial order.
func (vc VectorClock) DominatesOrEqual(other VectorClock) bool {
	c := vc.Compare(other)
	return c == Dominates || c == Equal
}

// HappensBefore reports vc → other (strictly).
func (vc VectorClock) HappensBefore(other VectorClock) bool {
	return vc.Compare(other) == DominatedBy
}

// ConcurrentWith reports that neither clock dominates.
func (vc VectorClock) ConcurrentWith(other VectorClock) bool {
	return vc.Compare(other) == Concurrent
}

// Observe folds other into vc by pairwise max.
func (vc VectorClock) Observe(other VectorClock) {
	for id, v := range other {
		if v > vc[id] {
			vc[id] = v
		}
	}
}

// Tick increments id's entry and returns the new value.
func (vc VectorClock) Tick(id string) uint64 {
	vc[id]++
	return vc[id]
}

// Digest returns a canonical 64-bit key for the clock: entries are
// hashed individually (FNV-1a over the id and counter) and combined with
// a commutative mix, so identical clocks produce identical digests
// regardless of map iteration order, without sorting or allocating. Two
// distinct clocks collide with negligible probability; the digest names a
// version in hash-keyed caches (the executor's decoded-value memo), not
// in correctness-critical comparisons.
func (vc VectorClock) Digest() uint64 {
	var h uint64
	for id, v := range vc {
		e := uint64(14695981039346656037) // FNV-1a offset basis
		for i := 0; i < len(id); i++ {
			e ^= uint64(id[i])
			e *= 1099511628211
		}
		for s := 0; s < 64; s += 8 {
			e ^= (v >> s) & 0xff
			e *= 1099511628211
		}
		h += e * 0x9E3779B97F4A7C15 // golden-ratio spread before the sum
	}
	return h
}

// Copy returns an independent copy.
func (vc VectorClock) Copy() VectorClock {
	c := make(VectorClock, len(vc))
	for id, v := range vc {
		c[id] = v
	}
	return c
}

// ByteSize estimates serialized size: each entry is an id plus an 8-byte
// counter. The paper notes this grows linearly with the number of writers
// that touched the key, inflating tail latency for hot keys (§6.2.1).
func (vc VectorClock) ByteSize() int {
	n := 0
	for id := range vc {
		n += len(id) + 8
	}
	return n
}

// String renders entries in sorted order for stable logs.
func (vc VectorClock) String() string { return string(vc.appendCanonical(nil)) }

// appendCanonical appends {id:n,…}, ids sorted, to dst. Its byte order is
// the first key of a causal capsule's sibling order, so it runs on the
// stack: only a clock of more than 16 ids, or a full dst, allocates.
func (vc VectorClock) appendCanonical(dst []byte) []byte {
	var stack [16]string
	ids := stack[:0]
	for id := range vc {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	dst = append(dst, '{')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(dst, id...), ':')
		dst = strconv.AppendUint(dst, vc[id], 10)
	}
	return append(dst, '}')
}
