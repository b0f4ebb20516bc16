// Package lattice implements the mergeable monotonic data structures
// (join semilattices) that Anna stores and Cloudburst wraps user state in
// (§2.2, §5.2 of the paper). Every lattice's Merge is associative,
// commutative, and idempotent, so replicas converge regardless of the
// batching, ordering, or repetition of updates — the property-based tests
// in this package verify ACI for every type.
//
// Every lattice is an immutable value: nothing writes one once it is
// built, so stores, caches and messages across the simulated cluster
// share them instead of copying.
package lattice

import (
	"fmt"
	"slices"
)

// Lattice is a join-semilattice element. Merge returns the least upper
// bound of the receiver and other and writes neither; callers keep the
// result.
type Lattice interface {
	// Merge returns the join of the receiver and other: the receiver when
	// it covers other, other when it covers the receiver, else a new
	// value. other must have the same concrete type; Merge panics
	// otherwise (a type-confused store is a programming error, not a
	// runtime condition).
	Merge(other Lattice) Lattice
	// ByteSize estimates the serialized size in bytes, used for
	// bandwidth accounting and the metadata-overhead measurements in
	// §6.1.4 and §6.2.1.
	ByteSize() int
	// TypeName identifies the lattice type for diagnostics.
	TypeName() string
}

// mismatch builds the panic message for a cross-type merge.
func mismatch(want string, got Lattice) string {
	return fmt.Sprintf("lattice: cannot merge %s into %s", got.TypeName(), want)
}

// Set is the grow-only set lattice with union as merge. Elements are
// strings (callers encode richer values). Like a Clock, a Set is an
// immutable ascending slice behind an unexported field; Elems shares it
// read-only, so readers range it in order without sorting.
type Set struct {
	elems []string // ascending, no duplicates
}

// NewSet returns a set containing elems; the caller keeps elems.
func NewSet(elems ...string) *Set {
	s := slices.Clone(elems)
	slices.Sort(s)
	return &Set{elems: slices.Compact(s)}
}

// Elems returns the members in ascending order. The slice is shared:
// callers must not write it.
func (s *Set) Elems() []string { return s.elems }

// Merge implements Lattice: a side that holds the other comes back as it
// is, else one merged slice.
func (s *Set) Merge(other Lattice) Lattice {
	o, ok := other.(*Set)
	if !ok {
		panic(mismatch(s.TypeName(), other))
	}
	switch {
	case covers(s.elems, o.elems):
		return s
	case covers(o.elems, s.elems):
		return o
	}
	a, b := s.elems, o.elems
	out := make([]string, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return &Set{elems: append(append(out, a...), b...)}
}

// covers reports whether the ascending a holds every element of the
// ascending b.
func covers(a, b []string) bool {
	for _, e := range b {
		i, found := slices.BinarySearch(a, e)
		if !found {
			return false
		}
		a = a[i+1:]
	}
	return true
}

// Without returns the set minus elems, or the receiver itself when it
// holds none of them. Grow-only sets have no lattice deletion; this is
// for Anna's operational removal (SetRemoveReq).
func (s *Set) Without(elems []string) *Set {
	drop := func(e string) bool { return slices.Contains(elems, e) }
	if !slices.ContainsFunc(s.elems, drop) {
		return s
	}
	return &Set{elems: slices.DeleteFunc(slices.Clone(s.elems), drop)}
}

// ByteSize implements Lattice.
func (s *Set) ByteSize() int {
	n := 0
	for _, e := range s.elems {
		n += len(e) + 8
	}
	return n
}

// TypeName implements Lattice.
func (s *Set) TypeName() string { return "set" }
