package lattice

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// oracleDepsCover is the map form's depsCover: b adds no dependency or
// later clock, and a is nil when both are empty.
func oracleDepsCover(a, b map[string]VectorClock) bool {
	if len(a) == 0 && len(b) == 0 {
		return a == nil
	}
	for k, vc := range b {
		if cur, ok := a[k]; !ok || !cur.DominatesOrEqual(vc) {
			return false
		}
	}
	return true
}

// TestDepsMatchMapOracle is the differential test of the sorted
// dependency set: over seeded random sets drawn from histGen (nil, empty,
// and up to three of three keys over a shared clock pool, so keys collide
// with equal, ordered and concurrent clocks), unionDeps and depsCover
// give what the map form's gave, nil versus empty included; a covering
// union is its first argument itself, and neither argument changes. The
// Deps walk over 2-4 siblings yields each key once, ascending, with the
// map form's fold of the siblings' clocks; a builder given keys twice
// keeps the later clock, as a map assignment does.
//
// Mutations this was seen to fail under: the union keeping b's clock on a
// shared key instead of the join; depsCover ignoring a key only b has;
// the walk yielding the first sibling's clock instead of the join; the
// walk starting each step from the last key instead of above it.
func TestDepsMatchMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	seen := map[string]int{}
	for trial := 0; trial < 3000; trial++ {
		g := newHistGen(rng)
		am, bm := g.deps(), g.deps()
		a, b := freezeDeps(am), freezeDeps(bm)
		aWas, bWas := fmt.Sprint(thawDeps(a)), fmt.Sprint(thawDeps(b))

		cover, want := depsCover(a, b), oracleDepsCover(am, bm)
		if cover != want {
			t.Fatalf("depsCover(%v, %v) = %v, want %v", am, bm, cover, want)
		}
		u := unionDeps(a, b)
		uWant := oracleUnionDeps(am, bm)
		if got := thawDeps(u); !reflect.DeepEqual(got, uWant) && !(len(got) == 0 && len(uWant) == 0) {
			t.Fatalf("unionDeps(%v, %v) = %v, want %v", am, bm, got, uWant)
		}
		if (u.e == nil) != (uWant == nil) {
			t.Fatalf("unionDeps(%v, %v): zero = %v, the map form's nil = %v", am, bm, u.e == nil, uWant == nil)
		}
		if cover && !sameDeps(u, a) {
			t.Fatalf("unionDeps(%v, %v) covers but is not its first argument", am, bm)
		}
		if fmt.Sprint(thawDeps(a)) != aWas || fmt.Sprint(thawDeps(b)) != bWas {
			t.Fatal("unionDeps changed an argument")
		}
		switch {
		case cover:
			seen["a covers b"]++
		case len(am) == 0 && len(bm) == 0:
			seen["both empty, a not nil"]++
		default:
			seen["a fresh union"]++
		}
		for k, x := range am {
			if y, ok := bm[k]; ok && x.Compare(y) == Concurrent {
				seen["a shared key, concurrent clocks"]++
			}
		}

		// The walk over 2-4 siblings (the walk needs no antichain).
		var vs []mapVersion
		for i := 2 + rng.Intn(3); i > 0; i-- {
			vs = append(vs, mapVersion{VC: VectorClock{"w": 1}, Deps: g.deps()})
		}
		got, ascending := walkDeps(freezeVersions(vs))
		if !ascending {
			t.Fatalf("Deps() of %v: keys not ascending", vs)
		}
		if want := oracleDepsUnion(vs); !reflect.DeepEqual(got, want) {
			t.Fatalf("Deps() of %v = %v, want %v", vs, got, want)
		}
		for k := range got {
			var clocks []VectorClock
			for _, v := range vs {
				if vc, ok := v.Deps[k]; ok {
					clocks = append(clocks, vc)
				}
			}
			for i := 1; i < len(clocks); i++ {
				if clocks[0].Compare(clocks[i]) == Concurrent {
					seen["a walked key with concurrent clocks"]++
				}
			}
		}
	}

	b := NewDepsBuilder(4)
	b.Add("k", VectorClock{"x": 1}.Freeze())
	b.Add("j", VectorClock{"x": 2}.Freeze())
	b.Add("k", VectorClock{"x": 3}.Freeze())
	if got, want := thawDeps(b.Deps()), map[string]VectorClock{"j": {"x": 2}, "k": {"x": 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("builder with a repeated key = %v, want %v", got, want)
	}
	if b.e != nil {
		t.Fatal("the builder kept the storage of the set it returned")
	}

	for _, name := range []string{
		"a covers b", "both empty, a not nil", "a fresh union",
		"a shared key, concurrent clocks", "a walked key with concurrent clocks",
	} {
		if seen[name] == 0 {
			t.Errorf("no trial had the case %q", name)
		}
	}
}

// sameDeps reports whether a and b are one set shared, not two equal ones.
func sameDeps(a, b Deps) bool {
	return len(a.e) == len(b.e) && (a.e == nil) == (b.e == nil) && (len(a.e) == 0 || &a.e[0] == &b.e[0])
}

// TestCausalDepAllocatesOnce holds NewCausalDep to the capsule a
// one-entry DepsBuilder gives NewCausalClock (digest, clock, payload, the
// dependency walk) and pins it at one allocation, the builder's form at
// two; its dependency set has no room past its entry.
func TestCausalDepAllocatesOnce(t *testing.T) {
	vc := VectorClock{"w1": 3, "w2": 1}.Freeze()
	dep := VectorClock{"w9": 2}.Freeze()
	payload := []byte("timeline")
	built := func() *Causal {
		b := NewDepsBuilder(1)
		b.Add("post", dep)
		return NewCausalClock(vc, b.Deps(), payload)
	}
	one, want := NewCausalDep(vc, "post", dep, payload), built()
	if one.Digest() != want.Digest() || one.VC().Compare(want.VC()) != Equal || string(one.DisplayValue()) != string(want.DisplayValue()) {
		t.Fatalf("NewCausalDep = %v, the builder's capsule %v", one, want)
	}
	var walked []string
	for k, c := range one.Deps() {
		walked = append(walked, k+"@"+c.String())
	}
	if len(walked) != 1 || walked[0] != "post@"+dep.String() {
		t.Fatalf("dependency walk = %v, want post@%s", walked, dep)
	}
	if e := one.versions[0].Deps.e; cap(e) != 1 {
		t.Fatalf("dependency set has room for %d, want 1", cap(e))
	}
	var got *Causal
	if n := testing.AllocsPerRun(100, func() { got = NewCausalDep(vc, "post", dep, payload) }); n != 1 {
		t.Errorf("a one-dependency capsule allocates %.0f times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { got = built() }); n != 2 {
		t.Errorf("the builder's one-dependency capsule allocates %.0f times, want 2", n)
	}
	_ = got
}
