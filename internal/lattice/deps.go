package lattice

import (
	"iter"
	"slices"
	"strings"
)

// depEntry is one dependency of a version: a key and the clock of the
// version of it the writer had read.
type depEntry struct {
	key string
	vc  Clock
}

// Deps is a version's dependency set (§5.2): its (key, clock) pairs in
// ascending key order, behind an unexported field like a Clock's entries,
// so nothing outside this package can write one. Versions, capsules and
// merges share it by reference. The zero Deps (no dependency tracked: SK
// mode, NewCausal's nil map) and a built empty set are distinct values;
// unionDeps joins two empty sets to the zero one.
type Deps struct {
	e []depEntry
}

// search returns where key is or belongs in d, and whether it is there.
func (d Deps) search(key string) (int, bool) {
	return slices.BinarySearchFunc(d.e, key, func(x depEntry, key string) int { return strings.Compare(x.key, key) })
}

// DepsBuilder collects a version's dependencies in any order, keeping
// them sorted as they arrive. Sized by NewDepsBuilder for at most n of
// them, it allocates once (not at all for n == 0), and Deps hands that
// storage over without copying it.
type DepsBuilder struct {
	e []depEntry
}

// NewDepsBuilder returns a builder with room for n dependencies.
func NewDepsBuilder(n int) DepsBuilder { return DepsBuilder{e: make([]depEntry, 0, n)} }

// Add records a dependency on key at vc. A key added twice keeps the
// later clock, as a map assignment would.
func (b *DepsBuilder) Add(key string, vc Clock) {
	i, found := Deps{e: b.e}.search(key)
	if found {
		b.e[i].vc = vc
		return
	}
	b.e = slices.Insert(b.e, i, depEntry{key: key, vc: vc})
}

// Deps returns what was added and lets go of it, so the builder keeps no
// way to write the set it returned.
func (b *DepsBuilder) Deps() Deps {
	d := Deps{e: b.e}
	b.e = nil
	return d
}

// Deps walks the union of the siblings' dependency sets — the metadata
// the distributed-session causal protocol ships downstream (§5.3): each
// key once, in ascending order, with the join of the clocks the siblings
// holding it record, folded in sibling order. A one-sibling capsule
// yields its version's own clocks. The walk allocates nothing but the
// Join of two concurrent clocks.
func (c *Causal) Deps() iter.Seq2[string, Clock] {
	return func(yield func(string, Clock) bool) {
		vs := c.versions
		if len(vs) == 1 {
			for _, x := range vs[0].Deps.e {
				if !yield(x.key, x.vc) {
					return
				}
			}
			return
		}
		var last string
		for started := false; ; started = true {
			// The least key above the one yielded last.
			key, found := "", false
			for _, v := range vs {
				i := 0
				if started {
					var at bool
					if i, at = v.Deps.search(last); at {
						i++
					}
				}
				if e := v.Deps.e; i < len(e) && (!found || e[i].key < key) {
					key, found = e[i].key, true
				}
			}
			if !found {
				return
			}
			var need Clock
			held := false
			for _, v := range vs {
				if i, at := v.Deps.search(key); at {
					if vc := v.Deps.e[i].vc; held {
						need = need.Join(vc)
					} else {
						need, held = vc, true
					}
				}
			}
			if !yield(key, need) {
				return
			}
			last = key
		}
	}
}

// unionDeps returns the pairwise-max union of two dependency sets in one
// merge walk, writing neither (both may be capsuled): a itself when b
// adds nothing, the zero Deps when both are empty, else a fresh set
// sharing every clock it did not have to join.
func unionDeps(a, b Deps) Deps {
	switch {
	case depsCover(a, b):
		return a
	case len(a.e) == 0 && len(b.e) == 0:
		return Deps{}
	}
	x, y := a.e, b.e
	out := make([]depEntry, 0, len(x)+len(y))
	for len(x) > 0 && len(y) > 0 {
		switch d := strings.Compare(x[0].key, y[0].key); {
		case d < 0:
			out = append(out, x[0])
			x = x[1:]
		case d > 0:
			out = append(out, y[0])
			y = y[1:]
		default:
			out = append(out, depEntry{key: x[0].key, vc: x[0].vc.Join(y[0].vc)}) // x's clock when it covers y's
			x, y = x[1:], y[1:]
		}
	}
	out = append(append(out, x...), y...)
	return Deps{e: out}
}

// depsCover reports whether unionDeps(a, b) is a itself: b adds no
// dependency or later clock, and a is the zero Deps when both are empty.
func depsCover(a, b Deps) bool {
	if len(a.e) == 0 && len(b.e) == 0 {
		return a.e == nil
	}
	x := a.e
	for _, y := range b.e {
		for len(x) > 0 && x[0].key < y.key {
			x = x[1:]
		}
		if len(x) == 0 || x[0].key != y.key || !x[0].vc.DominatesOrEqual(y.vc) {
			return false
		}
	}
	return true
}
