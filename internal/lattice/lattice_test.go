package lattice

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestSetUnion(t *testing.T) {
	a := NewSet("y", "x", "y")
	if !slices.Equal(a.Elems(), []string{"x", "y"}) {
		t.Fatalf("NewSet = %v, want [x y]", a.Elems())
	}
	u := a.Merge(NewSet("z", "y")).(*Set)
	if !slices.Equal(u.Elems(), []string{"x", "y", "z"}) || !slices.Equal(a.Elems(), []string{"x", "y"}) {
		t.Fatalf("union = %v, receiver now %v", u.Elems(), a.Elems())
	}
	if w := u.Without([]string{"y", "q"}); !slices.Equal(w.Elems(), []string{"x", "z"}) || len(u.Elems()) != 3 {
		t.Fatalf("without y = %v, set now %v", w.Elems(), u.Elems())
	}
	if u.Without([]string{"q"}) != u {
		t.Fatal("removing nothing built a new set")
	}
	if u.ByteSize() != 3*(1+8) || u.TypeName() != "set" {
		t.Error("metadata wrong")
	}
}

func TestLWWKeepsLatestTimestamp(t *testing.T) {
	a := NewLWW(Timestamp{Clock: 10, Node: 1}, []byte("old"))
	a = a.Merge(NewLWW(Timestamp{Clock: 20, Node: 0}, []byte("new"))).(*LWW)
	if string(a.Value) != "new" {
		t.Fatalf("value = %q", a.Value)
	}
	a = a.Merge(NewLWW(Timestamp{Clock: 15, Node: 9}, []byte("stale"))).(*LWW)
	if string(a.Value) != "new" {
		t.Fatalf("older write won: %q", a.Value)
	}
	// Node id breaks clock ties.
	a = a.Merge(NewLWW(Timestamp{Clock: 20, Node: 1}, []byte("tie"))).(*LWW)
	if string(a.Value) != "tie" {
		t.Fatalf("tie-break failed: %q", a.Value)
	}
}

func TestCausalDominationReplaces(t *testing.T) {
	v1 := NewCausal(VectorClock{"e1": 1}, nil, []byte("a"))
	v2 := NewCausal(VectorClock{"e1": 2}, nil, []byte("b"))
	v1 = v1.Merge(v2).(*Causal)
	if len(v1.versions) != 1 || string(v1.DisplayValue()) != "b" {
		t.Fatalf("dominating merge: %+v", v1.versions)
	}
	// Merging the older version back in changes nothing.
	v1 = v1.Merge(NewCausal(VectorClock{"e1": 1}, nil, []byte("a"))).(*Causal)
	if len(v1.versions) != 1 || string(v1.DisplayValue()) != "b" {
		t.Fatalf("dominated merge resurrected old version")
	}
}

func TestCausalConcurrentSiblingsPreserved(t *testing.T) {
	a := NewCausal(VectorClock{"e1": 1}, nil, []byte("a"))
	b := NewCausal(VectorClock{"e2": 1}, nil, []byte("b"))
	a = a.Merge(b).(*Causal)
	if len(a.versions) != 2 {
		t.Fatalf("siblings = %d, want 2", len(a.versions))
	}
	sib := a.Siblings()
	if !bytes.Equal(sib[0], []byte("a")) || !bytes.Equal(sib[1], []byte("b")) {
		t.Fatalf("siblings %q", sib)
	}
	// Effective VC is the join.
	if vc := a.VC(); vc.String() != "{e1:1,e2:1}" {
		t.Fatalf("joined vc = %v", vc)
	}
	// A write dominating both collapses the siblings.
	c := NewCausal(VectorClock{"e1": 2, "e2": 1}, nil, []byte("c"))
	a = a.Merge(c).(*Causal)
	if len(a.versions) != 1 || string(a.DisplayValue()) != "c" {
		t.Fatalf("dominating write did not collapse: %+v", a.versions)
	}
}

func TestCausalDepsUnion(t *testing.T) {
	a := NewCausal(VectorClock{"e1": 1}, map[string]VectorClock{"k": {"e9": 1}}, []byte("a"))
	b := NewCausal(VectorClock{"e2": 1}, map[string]VectorClock{"k": {"e9": 2}, "j": {"e3": 1}}, []byte("b"))
	a = a.Merge(b).(*Causal)
	deps, ascending := walkDeps(a)
	if deps["k"].String() != "{e9:2}" {
		t.Fatalf("deps on k = %v, want max clock", deps["k"])
	}
	if deps["j"].String() != "{e3:1}" || !ascending {
		t.Fatalf("deps on j missing or out of order: %v", deps)
	}
}

func TestCausalDisplayValueDeterministic(t *testing.T) {
	mk := func(order []int) string {
		caps := []*Causal{
			NewCausal(VectorClock{"e1": 1}, nil, []byte("x")),
			NewCausal(VectorClock{"e2": 1}, nil, []byte("y")),
			NewCausal(VectorClock{"e3": 1}, nil, []byte("z")),
		}
		acc := caps[order[0]].Merge(caps[order[1]]).Merge(caps[order[2]]).(*Causal)
		return string(acc.DisplayValue())
	}
	want := mk([]int{0, 1, 2})
	for _, ord := range [][]int{{2, 1, 0}, {1, 0, 2}, {2, 0, 1}} {
		if got := mk(ord); got != want {
			t.Fatalf("tie-break depends on merge order: %q vs %q", got, want)
		}
	}
}

func TestVectorClockCompare(t *testing.T) {
	cases := []struct {
		a, b VectorClock
		want Ordering
	}{
		{VectorClock{}, VectorClock{}, Equal},
		{VectorClock{"a": 1}, VectorClock{"a": 1}, Equal},
		{VectorClock{"a": 2}, VectorClock{"a": 1}, Dominates},
		{VectorClock{"a": 1}, VectorClock{"a": 2}, DominatedBy},
		{VectorClock{"a": 1}, VectorClock{"b": 1}, Concurrent},
		{VectorClock{"a": 1, "b": 1}, VectorClock{"a": 1}, Dominates},
		{VectorClock{"a": 1}, VectorClock{"a": 1, "b": 1}, DominatedBy},
		{VectorClock{"a": 2, "b": 1}, VectorClock{"a": 1, "b": 2}, Concurrent},
		{VectorClock{"a": 1, "b": 0}, VectorClock{"a": 1}, Equal}, // zero entries are absent
	}
	for i, c := range cases {
		if got := c.a.Freeze().Compare(c.b.Freeze()); got != c.want {
			t.Errorf("case %d: %v vs %v = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestVectorClockOps(t *testing.T) {
	var vc Clock
	vc = vc.Tick("e")
	if vc = vc.Tick("e"); vc.String() != "{e:2}" {
		t.Fatalf("Tick = %v", vc)
	}
	if ticked := vc.Tick("e"); vc.String() != "{e:2}" || ticked.String() != "{e:3}" {
		t.Fatal("Tick changed its receiver")
	}
	vc = vc.Join(VectorClock{"e": 1, "f": 5}.Freeze())
	if vc.String() != "{e:2,f:5}" {
		t.Fatalf("Join = %v", vc)
	}
	if !vc.DominatesOrEqual(VectorClock{"e": 2}.Freeze()) {
		t.Fatal("DominatesOrEqual false negative")
	}
	if !(VectorClock{"e": 1}).Freeze().HappensBefore(vc) {
		t.Fatal("HappensBefore false negative")
	}
	if (VectorClock{"z": 1}).Freeze().Compare(vc) != Concurrent {
		t.Fatal("Compare missed a concurrent clock")
	}
	if s := (VectorClock{"b": 2, "a": 1}).Freeze().String(); s != "{a:1,b:2}" {
		t.Fatalf("String = %q", s)
	}
}

func TestCrossTypeMergePanics(t *testing.T) {
	pairs := []struct{ a, b Lattice }{
		{NewSet("x"), NewLWW(Timestamp{}, nil)},
		{NewLWW(Timestamp{}, nil), NewSet()},
		{NewCausal(VectorClock{"a": 1}, nil, nil), NewLWW(Timestamp{}, nil)},
		{NewLWW(Timestamp{}, nil), NewCausal(VectorClock{}, nil, nil)},
		{NewSet(), NewCausal(VectorClock{}, nil, nil)},
		{NewCausal(VectorClock{"a": 1}, nil, nil), NewSet("x")},
	}
	for i, p := range pairs {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pair %d: cross-type merge did not panic", i)
				}
			}()
			_ = p.a.Merge(p.b)
		}()
	}
}

// --- Property-based ACI tests -----------------------------------------

// genLattice draws a random lattice instance of the given exemplar kind.
func genLattice(rng *rand.Rand, kind string) Lattice {
	switch kind {
	case "set":
		elems := make([]string, rng.Intn(6))
		for i := range elems {
			elems[i] = fmt.Sprintf("e%d", rng.Intn(10))
		}
		return NewSet(elems...)
	case "lww":
		return NewLWW(
			Timestamp{Clock: int64(rng.Intn(5)), Node: uint64(rng.Intn(3))},
			[]byte{byte(rng.Intn(4))},
		)
	case "causal":
		c := NewCausal(genVC(rng), genDeps(rng), []byte{byte(rng.Intn(4))})
		for i := rng.Intn(3); i > 0; i-- {
			c = c.Merge(NewCausal(genVC(rng), genDeps(rng), []byte{byte(rng.Intn(4))})).(*Causal)
		}
		return c
	}
	panic("unknown kind " + kind)
}

func genVC(rng *rand.Rand) VectorClock {
	vc := VectorClock{}
	for i := rng.Intn(3) + 1; i > 0; i-- {
		vc[fmt.Sprintf("e%d", rng.Intn(3))] = uint64(rng.Intn(4) + 1)
	}
	return vc
}

func genDeps(rng *rand.Rand) map[string]VectorClock {
	if rng.Intn(2) == 0 {
		return nil
	}
	deps := map[string]VectorClock{}
	for i := rng.Intn(3); i > 0; i-- {
		deps[fmt.Sprintf("k%d", rng.Intn(4))] = genVC(rng)
	}
	return deps
}

// canon renders a lattice for equality comparison, independent of
// internal representation details.
func canon(l Lattice) string {
	switch v := l.(type) {
	case *Set:
		return fmt.Sprintf("%v", v.Elems())
	case *LWW:
		return fmt.Sprintf("%v/%x", v.TS, v.Value)
	case *Causal:
		s := ""
		for _, ver := range v.versions {
			s += fmt.Sprintf("[%s=%x deps=%v]", ver.VC, ver.Value, ver.Deps)
		}
		return s
	}
	panic("canon: unknown type")
}

var allKinds = []string{"set", "lww", "causal"}

// TestMergeCommutative checks merge(a,b) == merge(b,a) for random values
// of every lattice type.
func TestMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kind := range allKinds {
		for i := 0; i < 300; i++ {
			a, b := genLattice(rng, kind), genLattice(rng, kind)
			ab := a.Merge(b)
			ba := b.Merge(a)
			if canon(ab) != canon(ba) {
				t.Fatalf("%s not commutative:\n a=%s\n b=%s\n ab=%s\n ba=%s",
					kind, canon(a), canon(b), canon(ab), canon(ba))
			}
		}
	}
}

// TestMergeAssociative checks merge(merge(a,b),c) == merge(a,merge(b,c)).
func TestMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, kind := range allKinds {
		for i := 0; i < 300; i++ {
			a, b, c := genLattice(rng, kind), genLattice(rng, kind), genLattice(rng, kind)
			l := a.Merge(b).Merge(c)
			r := a.Merge(b.Merge(c))
			if canon(l) != canon(r) {
				t.Fatalf("%s not associative:\n a=%s\n b=%s\n c=%s\n (ab)c=%s\n a(bc)=%s",
					kind, canon(a), canon(b), canon(c), canon(l), canon(r))
			}
		}
	}
}

// TestMergeIdempotent checks merge(a,a) == a and merge(merge(a,b),b) ==
// merge(a,b).
func TestMergeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, kind := range allKinds {
		for i := 0; i < 300; i++ {
			a, b := genLattice(rng, kind), genLattice(rng, kind)
			aa := a.Merge(a)
			if canon(aa) != canon(a) {
				t.Fatalf("%s: merge(a,a) != a", kind)
			}
			ab := a.Merge(b)
			abb := ab.Merge(b)
			if canon(abb) != canon(ab) {
				t.Fatalf("%s: merge(ab,b) != ab:\n ab=%s\n abb=%s", kind, canon(ab), canon(abb))
			}
		}
	}
}

// TestCloneIndependence verifies that keeping a merge's result never
// changes the original, so no caller needs a copy: merging, and merging
// on into what that merge returned, leaves the receiver and both
// arguments as they were. A causal result shares versions with its
// inputs, so what they derive from them must hold still too.
func TestCloneIndependence(t *testing.T) {
	state := func(l Lattice) string {
		s := canon(l)
		if c, ok := l.(*Causal); ok {
			deps, _ := walkDeps(c)
			s += fmt.Sprint(c.VC(), deps, c.MetadataSize())
		}
		return s
	}
	rng := rand.New(rand.NewSource(19))
	for _, kind := range allKinds {
		for i := 0; i < 100; i++ {
			a, b, c := genLattice(rng, kind), genLattice(rng, kind), genLattice(rng, kind)
			before, bBefore, cBefore := state(a), state(b), state(c)
			kept := a.Merge(b)
			kept = kept.Merge(c)
			if state(a) != before || state(b) != bBefore || state(c) != cBefore {
				t.Fatalf("%s: keeping a merge's result changed an input\n a %s -> %s\n b %s -> %s\n c %s -> %s",
					kind, before, state(a), bBefore, state(b), cBefore, state(c))
			}
		}
	}
}

// TestMergeMonotone verifies a set merge only moves up the lattice
// order: the join holds both sides, ascending and without repeats.
func TestMergeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		s, s2 := genLattice(rng, "set").(*Set), genLattice(rng, "set").(*Set)
		j := s.Merge(s2).(*Set)
		for _, e := range append(slices.Clone(s.Elems()), s2.Elems()...) {
			if !slices.Contains(j.Elems(), e) {
				t.Fatalf("join %v misses %q of %v or %v", j.Elems(), e, s.Elems(), s2.Elems())
			}
		}
		if !slices.IsSorted(j.Elems()) || len(slices.Compact(slices.Clone(j.Elems()))) != len(j.Elems()) {
			t.Fatalf("join %v is not ascending without repeats", j.Elems())
		}
	}
}

// TestCausalAntichainInvariant: after any merge sequence no version
// strictly dominates another (the sibling set is an antichain).
func TestCausalAntichainInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 300; i++ {
		acc := genLattice(rng, "causal").(*Causal)
		for j := 0; j < 5; j++ {
			acc = acc.Merge(genLattice(rng, "causal")).(*Causal)
		}
		for x, vx := range acc.versions {
			for y, vy := range acc.versions {
				if x == y {
					continue
				}
				if vx.VC.Compare(vy.VC) == DominatedBy {
					t.Fatalf("antichain violated: %s dominated by %s", vx.VC, vy.VC)
				}
			}
		}
	}
}

func TestByteSizes(t *testing.T) {
	l := NewLWW(Timestamp{Clock: 1}, make([]byte, 100))
	if l.ByteSize() != 108 {
		t.Errorf("LWW size = %d", l.ByteSize())
	}
	c := NewCausal(VectorClock{"executor-1": 1}, map[string]VectorClock{"dep": {"executor-2": 3}}, make([]byte, 50))
	wantMeta := (10 + 8) + (3 + 10 + 8) // vc entry + dep key + dep vc entry
	if c.MetadataSize() != wantMeta {
		t.Errorf("causal metadata = %d, want %d", c.MetadataSize(), wantMeta)
	}
	if c.ByteSize() != wantMeta+50 {
		t.Errorf("causal size = %d", c.ByteSize())
	}
}

// TestNodeHash holds NodeHash to FNV-64a, written out from its
// definition (offset basis, then xor and multiply by the prime per byte),
// for the empty id and ids of each kind of writer, and pins that it
// allocates nothing: it runs on every LWW write.
func TestNodeHash(t *testing.T) {
	if got := NodeHash(""); got != 0xcbf29ce484222325 {
		t.Fatalf("NodeHash(\"\") = %#x, want the FNV-64 offset basis", got)
	}
	for _, id := range []string{"", "client-3", "exec-vm0-1", "vm12.r2", "vm0", "txn-client-7-r41"} {
		want := uint64(0xcbf29ce484222325)
		for i := 0; i < len(id); i++ {
			want ^= uint64(id[i])
			want *= 0x100000001b3
		}
		if got := NodeHash(id); got != want {
			t.Errorf("NodeHash(%q) = %#x, FNV-64a gives %#x", id, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { nodeHashSink = NodeHash(id) }); n != 0 {
			t.Errorf("NodeHash(%q) allocates %.1f times", id, n)
		}
	}
}

var nodeHashSink uint64
