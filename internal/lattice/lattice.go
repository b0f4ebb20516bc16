// Package lattice implements the mergeable monotonic data structures
// (join semilattices) that Anna stores and Cloudburst wraps user state in
// (§2.2, §5.2 of the paper). Every lattice's Merge is associative,
// commutative, and idempotent, so replicas converge regardless of the
// batching, ordering, or repetition of updates — the property-based tests
// in this package verify ACI for every type.
package lattice

import "fmt"

// Lattice is a join-semilattice element. Merge returns the least upper
// bound of the receiver and other; callers keep the result. The capsules
// (LWW, Causal) are immutable values that Merge never writes and Clone
// returns as they are; the containers merge into the receiver and return it.
type Lattice interface {
	// Merge returns the join of the receiver and other. other must have
	// the same concrete type; Merge panics otherwise (a type-confused
	// store is a programming error, not a runtime condition).
	Merge(other Lattice) Lattice
	// Clone returns a copy deep enough that merging into one replica never
	// perturbs another: a container copies every structure its Merge
	// writes, and an immutable capsule is its own copy. Stores clone on
	// ingest and egress so that nodes in the simulated cluster never alias
	// each other's mutable state; for capsules that costs nothing.
	Clone() Lattice
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

// MaxInt64 is the max lattice over int64. Its zero value is usable.
type MaxInt64 struct {
	V int64
}

// NewMaxInt64 returns a MaxInt64 holding v.
func NewMaxInt64(v int64) *MaxInt64 { return &MaxInt64{V: v} }

// Merge implements Lattice.
func (m *MaxInt64) Merge(other Lattice) Lattice {
	o, ok := other.(*MaxInt64)
	if !ok {
		panic(mismatch(m.TypeName(), other))
	}
	if o.V > m.V {
		m.V = o.V
	}
	return m
}

// Clone implements Lattice.
func (m *MaxInt64) Clone() Lattice { return &MaxInt64{V: m.V} }

// ByteSize implements Lattice.
func (m *MaxInt64) ByteSize() int { return 8 }

// TypeName implements Lattice.
func (m *MaxInt64) TypeName() string { return "max_int64" }

// BoolOr is the boolean-or lattice: once true, always true.
type BoolOr struct {
	V bool
}

// NewBoolOr returns a BoolOr holding v.
func NewBoolOr(v bool) *BoolOr { return &BoolOr{V: v} }

// Merge implements Lattice.
func (b *BoolOr) Merge(other Lattice) Lattice {
	o, ok := other.(*BoolOr)
	if !ok {
		panic(mismatch(b.TypeName(), other))
	}
	b.V = b.V || o.V
	return b
}

// Clone implements Lattice.
func (b *BoolOr) Clone() Lattice { return &BoolOr{V: b.V} }

// ByteSize implements Lattice.
func (b *BoolOr) ByteSize() int { return 1 }

// TypeName implements Lattice.
func (b *BoolOr) TypeName() string { return "bool_or" }

// Set is the grow-only set lattice with union as merge. Elements are
// strings (callers encode richer values).
type Set struct {
	Elems map[string]struct{}
}

// NewSet returns a set containing elems.
func NewSet(elems ...string) *Set {
	s := &Set{Elems: make(map[string]struct{}, len(elems))}
	for _, e := range elems {
		s.Elems[e] = struct{}{}
	}
	return s
}

// Add inserts e.
func (s *Set) Add(e string) {
	if s.Elems == nil {
		s.Elems = make(map[string]struct{})
	}
	s.Elems[e] = struct{}{}
}

// Contains reports membership.
func (s *Set) Contains(e string) bool { _, ok := s.Elems[e]; return ok }

// Len reports cardinality.
func (s *Set) Len() int { return len(s.Elems) }

// Merge implements Lattice.
func (s *Set) Merge(other Lattice) Lattice {
	o, ok := other.(*Set)
	if !ok {
		panic(mismatch(s.TypeName(), other))
	}
	if s.Elems == nil {
		s.Elems = make(map[string]struct{}, len(o.Elems))
	}
	for e := range o.Elems {
		s.Elems[e] = struct{}{}
	}
	return s
}

// Clone implements Lattice.
func (s *Set) Clone() Lattice {
	c := &Set{Elems: make(map[string]struct{}, len(s.Elems))}
	for e := range s.Elems {
		c.Elems[e] = struct{}{}
	}
	return c
}

// ByteSize implements Lattice.
func (s *Set) ByteSize() int {
	n := 0
	for e := range s.Elems {
		n += len(e) + 8
	}
	return n
}

// TypeName implements Lattice.
func (s *Set) TypeName() string { return "set" }

// GCounter is a grow-only counter: one slot per writer node, merged by
// per-slot max; the counter's value is the slot sum.
type GCounter struct {
	Slots map[string]uint64
}

// NewGCounter returns an empty counter.
func NewGCounter() *GCounter { return &GCounter{Slots: make(map[string]uint64)} }

// Incr adds delta (≥0) to node's slot. Zero deltas are dropped so that a
// slot is present exactly when it is non-zero — keeping the
// representation canonical (zero slots are the merge identity).
func (g *GCounter) Incr(node string, delta uint64) {
	if delta == 0 {
		return
	}
	if g.Slots == nil {
		g.Slots = make(map[string]uint64)
	}
	g.Slots[node] += delta
}

// Value returns the counter total.
func (g *GCounter) Value() uint64 {
	var total uint64
	for _, v := range g.Slots {
		total += v
	}
	return total
}

// Merge implements Lattice.
func (g *GCounter) Merge(other Lattice) Lattice {
	o, ok := other.(*GCounter)
	if !ok {
		panic(mismatch(g.TypeName(), other))
	}
	if g.Slots == nil {
		g.Slots = make(map[string]uint64, len(o.Slots))
	}
	for n, v := range o.Slots {
		if v > g.Slots[n] {
			g.Slots[n] = v
		}
	}
	return g
}

// Clone implements Lattice.
func (g *GCounter) Clone() Lattice {
	c := &GCounter{Slots: make(map[string]uint64, len(g.Slots))}
	for n, v := range g.Slots {
		c.Slots[n] = v
	}
	return c
}

// ByteSize implements Lattice.
func (g *GCounter) ByteSize() int {
	n := 0
	for k := range g.Slots {
		n += len(k) + 8
	}
	return n
}

// TypeName implements Lattice.
func (g *GCounter) TypeName() string { return "gcounter" }

// Map is the lattice composition Anna uses (after Bloom): a map from
// string keys to lattices, merged pointwise. Cloudburst uses it for the
// key→cache index (§4.2), where each value is a Set of cache addresses.
type Map struct {
	Entries map[string]Lattice
}

// NewMap returns an empty map lattice.
func NewMap() *Map { return &Map{Entries: make(map[string]Lattice)} }

// Put merges v into the entry for k.
func (m *Map) Put(k string, v Lattice) {
	if m.Entries == nil {
		m.Entries = make(map[string]Lattice)
	}
	if cur, ok := m.Entries[k]; ok {
		m.Entries[k] = cur.Merge(v)
		return
	}
	m.Entries[k] = v.Clone()
}

// Get returns the entry for k, or nil.
func (m *Map) Get(k string) Lattice { return m.Entries[k] }

// Len reports the number of entries.
func (m *Map) Len() int { return len(m.Entries) }

// Merge implements Lattice.
func (m *Map) Merge(other Lattice) Lattice {
	o, ok := other.(*Map)
	if !ok {
		panic(mismatch(m.TypeName(), other))
	}
	for k, v := range o.Entries {
		m.Put(k, v)
	}
	return m
}

// Clone implements Lattice.
func (m *Map) Clone() Lattice {
	c := NewMap()
	for k, v := range m.Entries {
		c.Entries[k] = v.Clone()
	}
	return c
}

// ByteSize implements Lattice.
func (m *Map) ByteSize() int {
	n := 0
	for k, v := range m.Entries {
		n += len(k) + v.ByteSize()
	}
	return n
}

// TypeName implements Lattice.
func (m *Map) TypeName() string { return "map" }
