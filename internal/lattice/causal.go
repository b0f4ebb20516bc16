package lattice

import (
	"bytes"
	"slices"
)

// Version is one causally-identified write: an Anna vector clock naming
// the version, the dependency set recording which key versions the writer
// had read, and the payload. Inside a Causal it is an immutable value: a
// Clock and a Deps cannot be written at all, and the payload is never
// written again — so capsules, caches and session metadata share
// versions, clocks and dependency sets instead of copying them.
type Version struct {
	VC    Clock
	Deps  Deps
	Value []byte
}

// Causal is the causal-consistency capsule of §5.2: a key's set of
// concurrent versions (siblings). Merge is the classic multi-value
// register construction — union the version sets, then discard any
// version strictly dominated by another — which is associative,
// commutative, and idempotent (property-tested), unlike a literal
// "keep the dominating clock, else union values under a joined clock"
// reading, which loses associativity.
//
// A key written without conflict holds exactly one version. Concurrent
// writes are both preserved, which is exactly the update LWW drops — the
// single-key anomaly counted in Table 2. For such a capsule VC and the
// Deps walk give that version's own clocks.
type Causal struct {
	// versions is canonical: an antichain (no clock strictly dominates
	// another), one entry per (clock, payload), sorted by the clock's
	// String() and then the payload. Like the versions, the slice is
	// never written once capsuled: a capsule is an immutable value.
	versions []Version
	// vc is the join of the versions' clocks, set by the capsule's
	// constructor: the sibling set never changes, so neither does its
	// join.
	vc Clock
}

// NewCausal builds a capsule holding one write from clock literals. It
// freezes vc and the dependency map (nil stays the zero Deps), so the
// caller keeps its maps; the capsule takes ownership of value, which the
// caller must not mutate afterwards.
func NewCausal(vc VectorClock, deps map[string]VectorClock, value []byte) *Causal {
	var frozen Deps
	if deps != nil {
		b := NewDepsBuilder(len(deps))
		for k, d := range deps {
			b.Add(k, d.Freeze())
		}
		frozen = b.Deps()
	}
	return NewCausalClock(vc.Freeze(), frozen, value)
}

// NewCausalClock builds a capsule holding one write, the capsule and its
// one-version array in a single allocation. The capsule takes ownership
// of value; the caller must not mutate it afterwards.
func NewCausalClock(vc Clock, deps Deps, value []byte) *Causal {
	recordPayload(value)
	return newCapsule([]Version{{VC: vc, Deps: deps, Value: value}}, vc.nonZero())
}

// NewCausalDep is NewCausalClock with the Deps of the one dependency (key,
// dep), built with the capsule and its one-version array in a single
// allocation.
func NewCausalDep(vc Clock, key string, dep Clock, value []byte) *Causal {
	recordPayload(value)
	one := &struct {
		c Causal
		v [1]Version
		d [1]depEntry
	}{d: [1]depEntry{{key: key, vc: dep}}}
	one.v[0] = Version{VC: vc, Deps: Deps{e: one.d[:]}, Value: value}
	one.c = Causal{versions: one.v[:], vc: vc.nonZero()}
	return &one.c
}

// newCapsule returns a capsule holding a copy of the canonical sibling set
// vs under its joined clock vc. One or two siblings share the capsule's
// allocation; more take a second, exactly len(vs) long.
func newCapsule(vs []Version, vc Clock) *Causal {
	switch len(vs) {
	case 1:
		one := &struct {
			c Causal
			v [1]Version
		}{v: [1]Version(vs)}
		one.c = Causal{versions: one.v[:], vc: vc}
		return &one.c
	case 2:
		two := &struct {
			c Causal
			v [2]Version
		}{v: [2]Version(vs)}
		two.c = Causal{versions: two.v[:], vc: vc}
		return &two.c
	}
	c := &Causal{versions: make([]Version, len(vs)), vc: vc}
	copy(c.versions, vs)
	return c
}

// VC returns the capsule's effective vector clock: the join of all
// sibling clocks, which Algorithm 2's validity checks compare. It was
// joined where the capsule was built (a one-sibling capsule's is its
// version's own clock), so reading it allocates nothing.
func (c *Causal) VC() Clock { return c.vc }

// DisplayValue returns the single payload surfaced to the user program.
// The paper de-encapsulates multi-sibling capsules with an arbitrary but
// deterministic tie-break; the canonical ordering makes the first sibling
// that choice.
func (c *Causal) DisplayValue() []byte {
	if len(c.versions) == 0 {
		return nil
	}
	return c.versions[0].Value
}

// Siblings returns all concurrent payloads, for applications that resolve
// conflicts manually.
func (c *Causal) Siblings() [][]byte {
	out := make([][]byte, len(c.versions))
	for i, v := range c.versions {
		out[i] = v.Value
	}
	return out
}

// Merge implements Lattice without writing either side. When one side
// absorbs the other, the join is that side itself (the receiver first).
// Otherwise the join is worked out in scratch: the receiver's siblings,
// into which other's versions, both sides canonical, are inserted. Up to
// mergeScratch versions the scratch is on the stack and the new capsule
// holds a copy of exactly the survivors; past that it is one heap slice
// with room for both sides, which the capsule keeps. The new capsule's
// clock is the join of the two sides' clocks: every version the insert
// drops is covered by a survivor, so that is the join of the survivors'
// clocks.
func (c *Causal) Merge(other Lattice) Lattice {
	o, ok := other.(*Causal)
	if !ok {
		panic(mismatch(c.TypeName(), other))
	}
	switch {
	case absorbs(c.versions, o.versions):
		return c
	case absorbs(o.versions, c.versions):
		return o
	}
	// Two loops, so that the stack scratch never flows into a capsule and
	// stays on the stack.
	if n := len(c.versions) + len(o.versions); n > mergeScratch {
		vs := append(make([]Version, 0, n), c.versions...)
		for _, v := range o.versions {
			vs = insert(vs, v)
		}
		clear(vs[len(vs):cap(vs)]) // drop the replaced versions' references
		return &Causal{versions: vs, vc: c.vc.Join(o.vc)}
	}
	var scratch [mergeScratch]Version
	vs := append(scratch[:0], c.versions...)
	for _, v := range o.versions {
		vs = insert(vs, v)
	}
	return newCapsule(vs, c.vc.Join(o.vc))
}

// mergeScratch is how many versions of its two sides a merge works out on
// the stack. In the benchmark's causal-rw workload no concurrent merge
// had more (at seeds 1 and 13, of about 25,700 a run, the largest result
// held 5 siblings).
const mergeScratch = 8

// absorbs reports whether inserting every version of ws leaves the
// sibling set vs as it is — each is dominated by a sibling, or repeats a
// sibling's write without adding a dependency — so the join is vs.
func absorbs(vs, ws []Version) bool {
next:
	for _, w := range ws {
		for _, u := range vs {
			switch w.VC.Compare(u.VC) {
			case DominatedBy:
				continue next
			case Equal:
				if bytes.Equal(u.Value, w.Value) && depsCover(u.Deps, w.Deps) {
					continue next
				}
			}
		}
		return false
	}
	return true
}

// insert joins one version into the sibling set vs, which has room for
// it, and returns the set. Against an antichain exactly one of three
// holds, so an early return never follows a removal: a sibling dominates
// v, which is dropped; v repeats a sibling's write (equal clock and
// payload) and the dependency sets are unioned, so that neither merge
// order loses one; or v survives, replaces every sibling it dominates and
// takes its place in the canonical order.
func insert(vs []Version, v Version) []Version {
	kept := vs[:0]
	for i, u := range vs {
		switch v.VC.Compare(u.VC) {
		case DominatedBy:
			return vs
		case Dominates:
			continue
		case Equal:
			if bytes.Equal(u.Value, v.Value) {
				vs[i].Deps = unionDeps(u.Deps, v.Deps)
				return vs
			}
		}
		kept = append(kept, u)
	}
	at := canonicalIndex(kept, v)
	kept = append(kept, Version{})
	copy(kept[at+1:], kept[at:])
	kept[at] = v
	return kept
}

// canonicalIndex returns where v belongs among the sorted siblings vs.
// The order picks DisplayValue, so every causal table depends on it.
func canonicalIndex(vs []Version, v Version) int {
	if len(vs) == 0 { // the common write: v replaced the only sibling
		return 0
	}
	var vbuf, ubuf [256]byte
	vkey := v.VC.appendCanonical(vbuf[:0])
	at, _ := slices.BinarySearchFunc(vs, v, func(u, v Version) int {
		if ord := bytes.Compare(u.VC.appendCanonical(ubuf[:0]), vkey); ord != 0 {
			return ord
		}
		return bytes.Compare(u.Value, v.Value)
	})
	return at
}

// Digest returns a canonical 64-bit key for the capsule's exact sibling
// set: each version's clock digest is mixed and combined commutatively.
// Since a vector clock names one write (its writer ticked its own slot),
// equal sibling sets mean an identical DisplayValue, and distinct sets
// collide only as rarely as two 64-bit hashes do — which is what lets
// timestamp-free causal versions join the cluster's decode cache
// (core.DecodeCache).
func (c *Causal) Digest() uint64 {
	var h uint64
	for _, v := range c.versions {
		d := v.VC.Digest()
		d ^= d >> 33
		d *= 0xFF51AFD7ED558CCD
		d ^= d >> 33
		h += d
	}
	return h
}

// MetadataSize is the causal metadata overhead (vector clocks plus
// dependency sets), the quantity §6.2.1 reports medians and p99s for.
func (c *Causal) MetadataSize() int {
	n := 0
	for _, v := range c.versions {
		n += v.VC.ByteSize()
		for _, d := range v.Deps.e {
			n += len(d.key) + d.vc.ByteSize()
		}
	}
	return n
}

// ByteSize implements Lattice.
func (c *Causal) ByteSize() int {
	n := c.MetadataSize()
	for _, v := range c.versions {
		n += len(v.Value)
	}
	return n
}

// TypeName implements Lattice.
func (c *Causal) TypeName() string { return "causal" }
