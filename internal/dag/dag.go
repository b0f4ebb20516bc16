// Package dag models Cloudburst's registered function compositions (§3):
// directed acyclic graphs whose results flow automatically from producers
// to consumers, in the style of Spark/Dryad/Airflow lineage graphs.
package dag

import (
	"fmt"
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

// Sinks returns functions with no children, in declaration order.
func (d *DAG) Sinks() []string {
	hasChild := make(map[string]bool)
	for _, e := range d.Edges {
		hasChild[e[0]] = true
	}
	var out []string
	for _, f := range d.Functions {
		if !hasChild[f] {
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

// IsLinear reports whether the DAG is a simple chain. Repeatable read is
// defined over linear DAGs (§5.1).
func (d *DAG) IsLinear() bool {
	for _, f := range d.Functions {
		if len(d.Parents(f)) > 1 || len(d.Children(f)) > 1 {
			return false
		}
	}
	return len(d.Sources()) == 1 && len(d.Sinks()) == 1
}

// Index is a DAG with its topology computed once: Parents, Children,
// Sources and Sinks answer from tables built by NewIndex instead of
// scanning the edges and allocating on every call, which the request
// path does once per hop. The answers equal the DAG's own edge-scanning
// methods (reachable as Index.DAG.Parents and so on). An Index is
// immutable once built and its slices are shared, so callers must not
// modify them; one Index may serve every kernel that resolves its DAG.
type Index struct {
	DAG
	parents, children map[string][]string
	sources, sinks    []string
}

// NewIndex builds d's topology tables.
func NewIndex(d DAG) *Index {
	x := &Index{
		DAG:      d,
		parents:  make(map[string][]string, len(d.Functions)),
		children: make(map[string][]string, len(d.Functions)),
	}
	for _, f := range d.Functions {
		x.parents[f] = d.Parents(f)
		x.children[f] = d.Children(f)
	}
	x.sources, x.sinks = d.Sources(), d.Sinks()
	return x
}

// Parents returns the upstream functions of f, sorted.
func (x *Index) Parents(f string) []string { return x.parents[f] }

// Children returns the downstream functions of f, sorted.
func (x *Index) Children(f string) []string { return x.children[f] }

// Sources returns functions with no parents, in declaration order.
func (x *Index) Sources() []string { return x.sources }

// Sinks returns functions with no children, in declaration order.
func (x *Index) Sinks() []string { return x.sinks }

// Depth returns the number of vertices on the longest source→sink path —
// the normalization factor Figure 8 divides latencies by.
func (d *DAG) Depth() int {
	order, err := d.TopoOrder()
	if err != nil {
		return 0
	}
	depth := make(map[string]int, len(order))
	best := 0
	for _, f := range order {
		dep := 1
		for _, p := range d.Parents(f) {
			if depth[p]+1 > dep {
				dep = depth[p] + 1
			}
		}
		depth[f] = dep
		if dep > best {
			best = dep
		}
	}
	return best
}
