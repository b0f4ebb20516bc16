package dag

import (
	"math/rand"
	"slices"
	"testing"
)

// isLinear reports whether d is a simple chain. Repeatable read is
// defined over linear DAGs (§5.1).
func isLinear(d *DAG) bool {
	for _, f := range d.Functions {
		if len(d.Parents(f)) > 1 || len(d.Children(f)) > 1 {
			return false
		}
	}
	return len(d.Sources()) == 1 && len(sinks(d)) == 1
}

// sinks returns d's functions with no children, in declaration order.
func sinks(d *DAG) []string {
	var out []string
	for _, f := range d.Functions {
		if len(d.Children(f)) == 0 {
			out = append(out, f)
		}
	}
	return out
}

// depth returns the number of vertices on d's longest source→sink path.
func depth(d *DAG) int {
	order, err := d.TopoOrder()
	if err != nil {
		return 0
	}
	dep := make(map[string]int, len(order))
	best := 0
	for _, f := range order {
		dep[f] = 1
		for _, p := range d.Parents(f) {
			dep[f] = max(dep[f], dep[p]+1)
		}
		best = max(best, dep[f])
	}
	return best
}

func diamond() *DAG {
	return New("diamond", []string{"a", "b", "c", "d"},
		[][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}})
}

func TestLinearConstruction(t *testing.T) {
	d := Linear("chain", "f", "g", "h")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if !isLinear(d) {
		t.Fatal("chain not linear")
	}
	if got := d.Sources(); len(got) != 1 || got[0] != "f" {
		t.Fatalf("sources = %v", got)
	}
	if got := sinks(d); len(got) != 1 || got[0] != "h" {
		t.Fatalf("sinks = %v", got)
	}
	if depth(d) != 3 {
		t.Fatalf("depth = %d", depth(d))
	}
}

func TestDiamondTopology(t *testing.T) {
	d := diamond()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if isLinear(d) {
		t.Fatal("diamond reported linear")
	}
	if got := d.Parents("d"); len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("parents(d) = %v", got)
	}
	if got := d.Children("a"); len(got) != 2 {
		t.Fatalf("children(a) = %v", got)
	}
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, f := range order {
		pos[f] = i
	}
	for _, e := range d.Edges {
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("topo order violates edge %v: %v", e, order)
		}
	}
	if depth(d) != 3 {
		t.Fatalf("depth = %d", depth(d))
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	d := New("cyc", []string{"a", "b"}, [][2]string{{"a", "b"}, {"b", "a"}})
	if err := d.Validate(); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	cases := []*DAG{
		New("", []string{"a"}, nil),
		New("empty", nil, nil),
		New("dup", []string{"a", "a"}, nil),
		New("undeclared", []string{"a"}, [][2]string{{"a", "z"}}),
		New("self", []string{"a"}, [][2]string{{"a", "a"}}),
	}
	for i, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d (%s): invalid DAG accepted", i, d.Name)
		}
	}
}

func TestSingleFunctionDAG(t *testing.T) {
	d := Linear("solo", "f")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if !isLinear(d) || depth(d) != 1 {
		t.Fatal("single-function DAG misclassified")
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	d := diamond()
	first, _ := d.TopoOrder()
	for i := 0; i < 10; i++ {
		got, _ := d.TopoOrder()
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("nondeterministic topo order: %v vs %v", got, first)
			}
		}
	}
}

// TestIndexMatchesEdgeScan holds the precomputed position tables to the
// DAG's edge-scanning name methods, their oracle: each position list,
// read back through Functions, must be the scan's list in its order. The
// fixed diamond and fan-in shapes, then random DAGs whose edges run from
// lower to higher declaration index in random order (so fan-in arrives
// unsorted).
func TestIndexMatchesEdgeScan(t *testing.T) {
	check := func(d *DAG) {
		t.Helper()
		x := NewIndex(*d)
		names := func(pos []int) []string {
			out := make([]string, 0, len(pos))
			for _, i := range pos {
				out = append(out, x.Functions[i])
			}
			return out
		}
		for i, f := range d.Functions {
			if got, want := names(x.Parents(i)), d.Parents(f); !slices.Equal(got, want) {
				t.Fatalf("%s %v: Parents(%d=%s) = %v, edge scan %v", d.Name, d.Edges, i, f, got, want)
			}
			if got, want := names(x.Children(i)), d.Children(f); !slices.Equal(got, want) {
				t.Fatalf("%s %v: Children(%d=%s) = %v, edge scan %v", d.Name, d.Edges, i, f, got, want)
			}
		}
		if got, want := names(x.Sources()), d.Sources(); !slices.Equal(got, want) {
			t.Fatalf("%s %v: Sources = %v, edge scan %v", d.Name, d.Edges, got, want)
		}
	}
	check(diamond())
	check(Linear("solo", "f"))
	check(New("fanin", []string{"d", "c", "b", "a"}, [][2]string{{"c", "a"}, {"d", "a"}, {"b", "a"}}))
	rng := rand.New(rand.NewSource(9))
	fanIn := 0
	for i := 0; i < 300; i++ {
		n := rng.Intn(7) + 1
		fns := make([]string, n)
		for j, p := range rng.Perm(n) {
			fns[j] = string(rune('a' + p)) // declaration order is not name order
		}
		var edges [][2]string
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, [2]string{fns[a], fns[b]})
				}
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		d := New("rnd", fns, edges)
		for _, f := range fns {
			if len(d.Parents(f)) > 1 {
				fanIn++
			}
		}
		check(d)
	}
	if fanIn == 0 {
		t.Fatal("coverage: no random DAG had a fan-in vertex")
	}
}

// TestRandomDAGsValidateAndOrder generates random DAGs (edges always from
// lower to higher index, hence acyclic) and checks invariants — the same
// generator shape the consistency experiments use.
func TestRandomDAGsValidateAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		n := rng.Intn(5) + 1
		fns := make([]string, n)
		for j := range fns {
			fns[j] = string(rune('a' + j))
		}
		var edges [][2]string
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, [2]string{fns[a], fns[b]})
				}
			}
		}
		d := New("rnd", fns, edges)
		if err := d.Validate(); err != nil {
			t.Fatalf("random DAG rejected: %v", err)
		}
		order, err := d.TopoOrder()
		if err != nil || len(order) != n {
			t.Fatalf("topo order: %v %v", order, err)
		}
		if depth(d) < 1 || depth(d) > n {
			t.Fatalf("depth %d out of range", depth(d))
		}
	}
}
