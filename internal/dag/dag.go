// Package dag models Cloudburst's registered function compositions (§3).
// Every composition this system runs is a chain: §6.2's generator builds
// linear DAGs and §6.3.1's prediction pipeline is one, so a DAG is its
// functions in order, and function i's result is the last argument of
// function i+1.
package dag

import "fmt"

// DAG is a named chain of registered functions: Functions[0] runs first,
// and each later function receives its predecessor's result after its
// own client-supplied arguments.
type DAG struct {
	Name      string
	Functions []string
}

// Linear builds the chain f1 -> f2 -> ... -> fn.
func Linear(name string, functions ...string) *DAG {
	return &DAG{Name: name, Functions: functions}
}

// Validate checks that the DAG is named and has at least one function,
// none of them twice: a request's client arguments are found by function
// name (core.ArgsFor), so a name must mean one position.
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
	return nil
}
