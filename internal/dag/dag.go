// Package dag models Cloudburst's registered function compositions (§3):
// directed acyclic graphs whose results flow automatically from producers
// to consumers, in the style of Spark/Dryad/Airflow lineage graphs.
package dag

import (
	"fmt"
	"slices"
	"sort"
)

// DAG is a named composition of registered functions. Functions are
// vertices; an edge (a, b) pipes a's result into b's inputs.
type DAG struct {
	Name      string
	Functions []string
	Edges     [][2]string // (from, to)
}

// New builds a DAG; use Linear for simple chains.
func New(name string, functions []string, edges [][2]string) *DAG {
	return &DAG{Name: name, Functions: functions, Edges: edges}
}

// Linear builds the common chain f1 -> f2 -> ... -> fn.
func Linear(name string, functions ...string) *DAG {
	d := &DAG{Name: name, Functions: functions}
	for i := 0; i+1 < len(functions); i++ {
		d.Edges = append(d.Edges, [2]string{functions[i], functions[i+1]})
	}
	return d
}

// Validate checks structural sanity: no duplicate vertices, edges over
// declared vertices only, at least one function, and acyclicity.
func (d *DAG) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("dag: empty name")
	}
	if len(d.Functions) == 0 {
		return fmt.Errorf("dag %q: no functions", d.Name)
	}
	seen := make(map[string]bool, len(d.Functions))
	for _, f := range d.Functions {
		if seen[f] {
			return fmt.Errorf("dag %q: duplicate function %q", d.Name, f)
		}
		seen[f] = true
	}
	for _, e := range d.Edges {
		if !seen[e[0]] || !seen[e[1]] {
			return fmt.Errorf("dag %q: edge %v references undeclared function", d.Name, e)
		}
		if e[0] == e[1] {
			return fmt.Errorf("dag %q: self edge on %q", d.Name, e[0])
		}
	}
	if _, err := d.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// Parents returns the upstream functions of f, sorted.
func (d *DAG) Parents(f string) []string {
	var out []string
	for _, e := range d.Edges {
		if e[1] == f {
			out = append(out, e[0])
		}
	}
	sort.Strings(out)
	return out
}

// Children returns the downstream functions of f, sorted.
func (d *DAG) Children(f string) []string {
	var out []string
	for _, e := range d.Edges {
		if e[0] == f {
			out = append(out, e[1])
		}
	}
	sort.Strings(out)
	return out
}

// SameTopology reports whether o declares d's functions in d's order and
// d's edges in any order: the same positions and the same Index.
func (d *DAG) SameTopology(o *DAG) bool {
	if !slices.Equal(d.Functions, o.Functions) || len(d.Edges) != len(o.Edges) {
		return false
	}
	for _, f := range d.Functions {
		if !slices.Equal(d.Parents(f), o.Parents(f)) {
			return false
		}
	}
	return true
}

// Sources returns functions with no parents, in declaration order.
func (d *DAG) Sources() []string {
	hasParent := make(map[string]bool)
	for _, e := range d.Edges {
		hasParent[e[1]] = true
	}
	var out []string
	for _, f := range d.Functions {
		if !hasParent[f] {
			out = append(out, f)
		}
	}
	return out
}

// TopoOrder returns a deterministic topological order, or an error if the
// graph has a cycle.
func (d *DAG) TopoOrder() ([]string, error) {
	indeg := make(map[string]int, len(d.Functions))
	for _, f := range d.Functions {
		indeg[f] = 0
	}
	for _, e := range d.Edges {
		indeg[e[1]]++
	}
	// Kahn's algorithm with declaration-order tie-breaking for
	// determinism.
	var ready []string
	for _, f := range d.Functions {
		if indeg[f] == 0 {
			ready = append(ready, f)
		}
	}
	var out []string
	for len(ready) > 0 {
		f := ready[0]
		ready = ready[1:]
		out = append(out, f)
		for _, c := range d.Children(f) {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if len(out) != len(d.Functions) {
		return nil, fmt.Errorf("dag %q: cycle detected", d.Name)
	}
	return out, nil
}

// Index is a DAG with its topology computed once and addressed by
// position: function i is Functions[i], and Parents, Children and Sources
// answer in positions from tables built by NewIndex, so the request path
// neither scans edges nor looks a name up on a hop. Parents and Children
// list positions in the functions' name order and Sources in declaration
// order, the orders of the DAG's own name-returning methods (reachable as
// Index.DAG.Parents and so on), which stay the edge-facing form. An Index
// is immutable once built and its slices are shared, so callers must not
// modify them; one Index may serve every kernel that resolves its DAG.
type Index struct {
	DAG
	parents, children [][]int
	sources           []int
}

// NewIndex builds d's topology tables.
func NewIndex(d DAG) *Index {
	pos := make(map[string]int, len(d.Functions))
	for i, f := range d.Functions {
		pos[f] = i
	}
	positions := func(fns []string) []int {
		out := make([]int, len(fns))
		for i, f := range fns {
			out[i] = pos[f]
		}
		return out
	}
	x := &Index{
		DAG:      d,
		parents:  make([][]int, len(d.Functions)),
		children: make([][]int, len(d.Functions)),
		sources:  positions(d.Sources()),
	}
	for i, f := range d.Functions {
		x.parents[i], x.children[i] = positions(d.Parents(f)), positions(d.Children(f))
	}
	return x
}

// Parents returns the positions of function i's upstream functions, in
// name order.
func (x *Index) Parents(i int) []int { return x.parents[i] }

// Children returns the positions of function i's downstream functions, in
// name order.
func (x *Index) Children(i int) []int { return x.children[i] }

// Sources returns the positions of the functions with no parents, in
// declaration order.
func (x *Index) Sources() []int { return x.sources }
