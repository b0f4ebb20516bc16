package lattice

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"unsafe"
)

// The map form's methods, moved here unchanged when Clock replaced
// VectorClock inside versions: the oracle every Clock method is held to.

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

// Digest is the map form's commutative per-entry digest: FNV-1a over
// the id and counter, finalized with murmur3's fmix64, summed.
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
		e ^= e >> 33
		e *= 0xFF51AFD7ED558CCD
		e ^= e >> 33
		e *= 0xC4CEB9FE1A85EC53
		h += e ^ e>>33
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

// ByteSize is an id plus an 8-byte counter per entry.
func (vc VectorClock) ByteSize() int {
	n := 0
	for id := range vc {
		n += len(id) + 8
	}
	return n
}

// String renders entries in sorted order for stable logs.
func (vc VectorClock) String() string { return string(vc.appendCanonical(nil)) }

// appendCanonical appends {id:n,…}, ids sorted, to dst.
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

// thaw returns c in the map form, panicking unless its ids are strictly
// ascending — the invariant every Clock method relies on.
func thaw(c Clock) VectorClock {
	m := make(VectorClock, len(c.e))
	for i, x := range c.e {
		if i > 0 && c.e[i-1].id.Value() >= x.id.Value() {
			panic(fmt.Sprintf("clock %q: ids not strictly ascending", c.String()))
		}
		m[x.id.Value()] = x.n
	}
	return m
}

// thawDeps returns a dependency set in the map form, the zero Deps as
// empty. It panics on keys out of order, so every test that thaws a set
// also checks that it is sorted.
func thawDeps(deps Deps) map[string]VectorClock {
	out := make(map[string]VectorClock, len(deps.e))
	for i, d := range deps.e {
		if i > 0 && deps.e[i-1].key >= d.key {
			panic(fmt.Sprintf("dependency %q: keys not strictly ascending", d.key))
		}
		out[d.key] = thaw(d.vc)
	}
	return out
}

// freezeDeps builds the Deps of a map-form dependency set, nil as the
// zero Deps.
func freezeDeps(m map[string]VectorClock) Deps {
	if m == nil {
		return Deps{}
	}
	b := NewDepsBuilder(len(m))
	for k, vc := range m {
		b.Add(k, vc.Freeze())
	}
	return b.Deps()
}

// walkDeps collects c's Deps walk in the map form and reports whether it
// yielded its keys strictly ascending; it stops at the first that is not.
func walkDeps(c *Causal) (map[string]VectorClock, bool) {
	out := map[string]VectorClock{}
	last := ""
	for k, vc := range c.Deps() {
		if len(out) > 0 && k <= last {
			return out, false
		}
		out[k], last = thaw(vc), k
	}
	return out, true
}

// sameEntries reports whether a and b are one clock shared, not two
// equal ones.
func sameEntries(a, b Clock) bool {
	return len(a.e) == len(b.e) && (len(a.e) == 0 || &a.e[0] == &b.e[0])
}

// clockIDs are the writer ids random clocks draw from: ids that prefix
// one another, ids holding the renderer's separators, and the empty id.
var clockIDs = []string{"a", "b", "ab", "a,b", "a:1", "t", "t1", "t10", "t2", "", "w0", "w1"}

// genClock draws a map-form clock: nil, empty, wider than 16 ids, or a
// few ids from clockIDs, with zero, 9/10-style and 64-bit counters.
func genClock(rng *rand.Rand) VectorClock {
	counters := []uint64{0, 1, 2, 9, 10, 100, 1 << 63}
	switch rng.Intn(10) {
	case 0:
		return nil
	case 1:
		return VectorClock{}
	case 2:
		vc := VectorClock{}
		for i := 17 + rng.Intn(8); i > 0; i-- {
			vc[fmt.Sprintf("w%d", rng.Intn(30))] = counters[rng.Intn(len(counters))]
		}
		return vc
	}
	vc := VectorClock{}
	for i := 1 + rng.Intn(5); i > 0; i-- {
		vc[clockIDs[rng.Intn(len(clockIDs))]] = counters[rng.Intn(len(counters))]
	}
	return vc
}

// TestClockMatchesVectorClock is the differential test of the frozen
// clock: over seeded random pairs, every Clock method gives what the map
// form's gave — orderings, the join, a tick, Digest, ByteSize and String
// — a join that adds nothing is the receiver itself, and no operation
// changes its operands. A capsule's VC() and Deps() walk are held to the
// map form's fold over random sibling sets in the same way.
//
// Mutations this was seen to fail under: Compare ignoring ids only one
// side has; Join keeping the receiver's counter on a shared id; Join
// sizing its result for both sides' entries; Tick appending a new id
// instead of inserting it in order.
func TestClockMatchesVectorClock(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	seen := map[string]int{}
	for trial := 0; trial < 4000; trial++ {
		a, b := genClock(rng), genClock(rng)
		A, B := a.Freeze(), b.Freeze()
		aStr, bStr := A.String(), B.String()
		for _, vc := range []VectorClock{a, b} {
			switch {
			case vc == nil:
				seen["nil clock"]++
			case len(vc) == 0:
				seen["empty clock"]++
			case len(vc) > 16:
				seen["more than 16 ids"]++
			}
			for _, n := range vc {
				if n == 0 {
					seen["zero entry"]++
				}
			}
		}
		for id := range a {
			if _, ok := b[id]; !ok {
				seen["one-sided id"]++
			}
		}
		ord := a.Compare(b)
		seen[ord.String()]++
		if got := A.Compare(B); got != ord {
			t.Fatalf("%v.Compare(%v) = %v, want %v", a, b, got, ord)
		}
		if A.HappensBefore(B) != a.HappensBefore(b) || A.DominatesOrEqual(B) != a.DominatesOrEqual(b) {
			t.Fatalf("%v vs %v: HappensBefore/DominatesOrEqual differ from the map form", a, b)
		}

		join := A.Join(B)
		joinWant := a.Copy()
		joinWant.Observe(b)
		if got := thaw(join); !reflect.DeepEqual(got, joinWant) {
			t.Fatalf("%v.Join(%v) = %v, want %v", a, b, got, joinWant)
		}
		if a.DominatesOrEqual(b) != sameEntries(join, A) {
			t.Fatalf("%v.Join(%v): receiver returned = %v, want %v", a, b, sameEntries(join, A), a.DominatesOrEqual(b))
		}
		if cap(join.e) != len(join.e) {
			t.Fatalf("%v.Join(%v) holds %d entries in room for %d", a, b, len(join.e), cap(join.e))
		}

		id := clockIDs[rng.Intn(len(clockIDs))]
		tick := A.Tick(id)
		tickWant := a.Copy()
		tickWant.Tick(id)
		if got := thaw(tick); !reflect.DeepEqual(got, tickWant) {
			t.Fatalf("%v.Tick(%q) = %v, want %v", a, id, got, tickWant)
		}

		for _, c := range []struct {
			vc VectorClock
			fc Clock
		}{{a, A}, {b, B}, {joinWant, join}, {tickWant, tick}} {
			if c.fc.Digest() != c.vc.Digest() || c.fc.ByteSize() != c.vc.ByteSize() || c.fc.Len() != len(c.vc) {
				t.Fatalf("%v: Digest/ByteSize/Len differ from the map form", c.vc)
			}
			if got := c.fc.String(); got != c.vc.String() || got != oracleString(c.vc) {
				t.Fatalf("String() = %q, want %q", got, oracleString(c.vc))
			}
		}
		if A.String() != aStr || B.String() != bStr {
			t.Fatalf("an operation changed its operands: %s, %s became %s, %s", aStr, bStr, A, B)
		}

		// A capsule's joined clock and dependency union, over 1-3
		// siblings (VC and the Deps walk need no antichain).
		var vs []mapVersion
		for i := 1 + rng.Intn(3); i > 0; i-- {
			v := mapVersion{VC: genClock(rng)}
			if rng.Intn(2) == 0 {
				v.Deps = map[string]VectorClock{}
				for j := rng.Intn(3); j > 0; j-- {
					v.Deps[fmt.Sprintf("k%d", rng.Intn(3))] = genClock(rng)
				}
			}
			vs = append(vs, v)
		}
		c := freezeVersions(vs)
		if got, want := thaw(c.VC()), oracleVC(vs); !reflect.DeepEqual(got, want) {
			t.Fatalf("VC() of %d siblings = %v, want %v", len(vs), got, want)
		}
		if got, ascending := walkDeps(c); !ascending || !reflect.DeepEqual(got, oracleDepsUnion(vs)) {
			t.Fatalf("Deps() of %d siblings = %v (ascending: %v), want %v", len(vs), got, ascending, oracleDepsUnion(vs))
		}
		if len(vs) == 1 {
			seen["one sibling"]++
			own := c.versions[0].VC
			built := NewCausalClock(own, c.versions[0].Deps, nil)
			if got, want := thaw(built.VC()), oracleVC(vs); !reflect.DeepEqual(got, want) {
				t.Fatalf("VC() of a capsule built on %s = %v, want %v", own, got, want)
			}
			if !slices.ContainsFunc(own.e, func(x clockEntry) bool { return x.n == 0 }) && !sameEntries(built.VC(), own) {
				t.Fatalf("VC() of one sibling %s is a copy, not its clock", own)
			}
		}
	}
	for _, name := range []string{
		"nil clock", "empty clock", "more than 16 ids", "zero entry", "one-sided id", "one sibling",
		Equal.String(), Dominates.String(), DominatedBy.String(), Concurrent.String(),
	} {
		if seen[name] == 0 {
			t.Errorf("no trial had the case %q", name)
		}
	}
}

// TestTickedClockMatchesFrozenLiteral: a clock a writer's ticks built
// and a literal of the same names frozen apart from it are one clock to
// every reader — Compare, Digest and String — and an entry is a name
// handle and a counter, 16 bytes.
func TestTickedClockMatchesFrozenLiteral(t *testing.T) {
	if n := unsafe.Sizeof(clockEntry{}); n != 16 {
		t.Errorf("a clock entry is %d bytes, want 16", n)
	}
	var ticked Clock
	for _, id := range []string{"exec-vm1-2", "preload", "exec-vm1-2", "exec-vm0-1", "exec-vm1-2"} {
		ticked = ticked.Tick(string([]byte(id))) // a name built apart from the literal's
	}
	literal := VectorClock{"exec-vm0-1": 1, "exec-vm1-2": 3, "preload": 1}.Freeze()
	if o := ticked.Compare(literal); o != Equal {
		t.Errorf("ticked %s vs literal %s: %v, want equal", ticked, literal, o)
	}
	if ticked.Digest() != literal.Digest() || ticked.String() != literal.String() {
		t.Errorf("ticked %s (%#x) and literal %s (%#x) differ", ticked, ticked.Digest(), literal, literal.Digest())
	}
	later := literal.Tick("exec-vm0-1")
	if o := ticked.Compare(later); o != DominatedBy {
		t.Errorf("ticked %s vs %s: %v, want dominated-by", ticked, later, o)
	}
}

// sink keeps the allocation tripwires' results live.
var sink struct {
	ord   Ordering
	ok    bool
	clock Clock
	n     int
}

// TestClockAllocations is the tripwire for clock work allocating again:
// comparisons, a capsule's VC() (one sibling or several: the join was
// made where the capsule was built) and the walk of a one-sibling
// capsule's dependencies are free, a tick or a join that adds an entry
// is one allocation.
func TestClockAllocations(t *testing.T) {
	a := VectorClock{"w1": 3, "w2": 1, "w3": 7}.Freeze()
	b := VectorClock{"w1": 3, "w2": 2, "w4": 1}.Freeze()
	one := NewCausal(VectorClock{"w1": 2, "w2": 1}, map[string]VectorClock{"dep": {"w9": 3}}, []byte("v"))
	six := NewCausal(VectorClock{"w0": 1}, nil, []byte("v"))
	for i := 1; i < 6; i++ {
		six = six.Merge(NewCausal(VectorClock{fmt.Sprintf("w%d", i): 1}, nil, []byte("v"))).(*Causal)
	}
	if len(six.versions) != 6 {
		t.Fatalf("six concurrent writes left %d siblings", len(six.versions))
	}
	required := VectorClock{"w1": 1}.Freeze() // a read set's clock for the key
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"Clock.Compare", 0, func() { sink.ord = a.Compare(b) }},
		{"Clock.HappensBefore", 0, func() { sink.ok = a.HappensBefore(b) }},
		{"VC() of one sibling", 0, func() { sink.clock = one.VC() }},
		{"VC() of six siblings", 0, func() { sink.clock = six.VC() }},
		{"the Deps() walk of one sibling", 0, func() {
			for _, vc := range one.Deps() {
				sink.n += vc.Len()
			}
		}},
		{"a DSC cache hit's VC() check", 0, func() { sink.ok = !one.VC().HappensBefore(required) }},
		{"Join adding nothing", 0, func() { sink.clock = a.Join(required) }},
		{"Join adding an entry", 1, func() { sink.clock = a.Join(b) }},
		{"Tick of a present id", 1, func() { sink.clock = a.Tick("w2") }},
		{"Tick of a new id", 1, func() { sink.clock = a.Tick("w0") }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != c.want {
			t.Errorf("%s allocates %.0f times, want %.0f", c.name, n, c.want)
		}
	}
}

// TestClockDigestGridHasNoCollisions sweeps two writers' counters over a
// grid beside a fixed third entry: clocks that differ only in how far two
// writers advanced must not share a digest, since the cluster's decode
// cache names a causal version by it.
func TestClockDigestGridHasNoCollisions(t *testing.T) {
	seen := make(map[uint64]VectorClock)
	for a := uint64(1); a <= 6; a++ {
		for b := uint64(1); b <= 6; b++ {
			vc := VectorClock{"exec-vm3-0": a, "exec-vm3-1": b, "preload": 1687}
			d := vc.Freeze().Digest()
			if prev, dup := seen[d]; dup {
				t.Errorf("%v and %v share digest %#x", prev, vc, d)
			}
			seen[d] = vc
		}
	}
}
