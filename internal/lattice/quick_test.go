package lattice

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// This file complements lattice_test.go's table-driven ACI checks with
// testing/quick generators: quick drives the shapes (slices of
// operations, arbitrary clock maps), and the properties assert the
// algebraic laws on whatever it produces.

// quickCfg sizes the generators.
func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(97))}
}

// smallVC turns quick's raw material into a bounded vector clock.
type smallVC struct {
	A, B, C uint8
}

func (s smallVC) vc() VectorClock {
	vc := VectorClock{}
	if s.A > 0 {
		vc["a"] = uint64(s.A % 5)
	}
	if s.B > 0 {
		vc["b"] = uint64(s.B % 5)
	}
	if s.C > 0 {
		vc["c"] = uint64(s.C % 5)
	}
	// Zero-valued entries are identity; drop them to keep the
	// representation canonical.
	for k, v := range vc {
		if v == 0 {
			delete(vc, k)
		}
	}
	return vc
}

func TestQuickVectorClockCompareAntisymmetric(t *testing.T) {
	prop := func(x, y smallVC) bool {
		a, b := x.vc().Freeze(), y.vc().Freeze()
		ab, ba := a.Compare(b), b.Compare(a)
		switch ab {
		case Equal:
			return ba == Equal
		case Dominates:
			return ba == DominatedBy
		case DominatedBy:
			return ba == Dominates
		default:
			return ba == Concurrent
		}
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickVectorClockObserveIsJoin(t *testing.T) {
	prop := func(x, y smallVC) bool {
		a, b := x.vc().Freeze(), y.vc().Freeze()
		j := a.Join(b)
		// The join is an upper bound of both...
		if !j.DominatesOrEqual(a) || !j.DominatesOrEqual(b) {
			return false
		}
		// ...and is the least one: joining again changes nothing.
		return j.Join(a).Join(b).Compare(j) == Equal
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickVectorClockTickDominates(t *testing.T) {
	prop := func(x smallVC, who uint8) bool {
		before := x.vc().Freeze()
		a := before.Tick(string(rune('a' + who%3)))
		return a.Compare(before) == Dominates
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// setOps is quick's raw material for building arbitrary Set values.
type setOps []uint8

func (o setOps) set() *Set {
	elems := make([]string, len(o))
	for i, n := range o {
		elems[i] = string(rune('a' + n%6))
	}
	return NewSet(elems...)
}

func TestQuickSetACI(t *testing.T) {
	prop := func(x, y, z setOps) bool {
		a, b, c := x.set(), y.set(), z.set()
		ab, ba := a.Merge(b).(*Set), b.Merge(a).(*Set)
		l, r := a.Merge(b).Merge(c).(*Set), a.Merge(b.Merge(c)).(*Set)
		aa := a.Merge(a).(*Set)
		return slices.Equal(ab.Elems(), ba.Elems()) && // commutative
			slices.Equal(l.Elems(), r.Elems()) && // associative
			slices.Equal(aa.Elems(), a.Elems()) // idempotent
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSetMergeIsUnion(t *testing.T) {
	prop := func(x, y setOps) bool {
		a, b := x.set(), y.set()
		m := a.Merge(b).(*Set)
		union := map[string]bool{}
		for _, e := range append(slices.Clone(a.Elems()), b.Elems()...) {
			union[e] = true
		}
		if len(m.Elems()) != len(union) || !slices.IsSorted(m.Elems()) {
			return false
		}
		for _, e := range m.Elems() {
			if !union[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLWWConvergence(t *testing.T) {
	// Any permutation of merges converges to the same survivor.
	prop := func(clocks []uint8, vals []uint8) bool {
		n := len(clocks)
		if n == 0 || len(vals) < n {
			return true
		}
		if n > 6 {
			n = 6
		}
		mk := func() []*LWW {
			out := make([]*LWW, n)
			for i := 0; i < n; i++ {
				out[i] = NewLWW(Timestamp{Clock: int64(clocks[i] % 4), Node: uint64(i % 2)}, []byte{vals[i]})
			}
			return out
		}
		var forward Lattice = mk()[0]
		for _, l := range mk()[1:] {
			forward = forward.Merge(l)
		}
		all := mk()
		var reverse Lattice = all[n-1]
		for i := n - 2; i >= 0; i-- {
			reverse = reverse.Merge(all[i])
		}
		f, r := forward.(*LWW), reverse.(*LWW)
		return f.TS == r.TS && string(f.Value) == string(r.Value)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCausalMergeConvergesAcrossOrders(t *testing.T) {
	prop := func(xs []smallVC, vals []uint8) bool {
		n := len(xs)
		if n == 0 || len(vals) < n {
			return true
		}
		if n > 5 {
			n = 5
		}
		mk := func(i int) *Causal {
			return NewCausal(xs[i].vc(), nil, []byte{vals[i] % 4})
		}
		var a Lattice = mk(0)
		for i := 1; i < n; i++ {
			a = a.Merge(mk(i))
		}
		var b Lattice = mk(n - 1)
		for i := n - 2; i >= 0; i-- {
			b = b.Merge(mk(i))
		}
		return canon(a) == canon(b) && storedJoin(a) && storedJoin(b)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}
