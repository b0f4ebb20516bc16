package dag

import (
	"slices"
	"testing"
)

func TestLinearConstruction(t *testing.T) {
	d := Linear("chain", "f", "g", "h")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Name != "chain" || !slices.Equal(d.Functions, []string{"f", "g", "h"}) {
		t.Fatalf("Linear built %+v", d)
	}
}

// TestValidateRejectsCycle: a chain can only cycle by naming a function
// twice, which Validate rejects.
func TestValidateRejectsCycle(t *testing.T) {
	if err := Linear("cyc", "a", "b", "a").Validate(); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	cases := []*DAG{
		Linear("", "a"),
		Linear("empty"),
		Linear("dup", "a", "a"),
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
	if len(d.Functions) != 1 {
		t.Fatal("single-function DAG misbuilt")
	}
}
