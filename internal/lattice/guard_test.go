package lattice

import "testing"

func TestGuardPassesWhenImmutable(t *testing.T) {
	GuardPayloads()
	a := NewLWW(Timestamp{Clock: 1}, []byte("aaa"))
	b := NewLWW(Timestamp{Clock: 2}, []byte("bbb"))
	_ = a.Merge(b)
	_ = NewCausal(VectorClock{"w": 1}, nil, []byte("ccc"))
	if err := VerifyPayloads(); err != nil {
		t.Fatal(err)
	}
}

func TestGuardCatchesInPlaceMutation(t *testing.T) {
	GuardPayloads()
	buf := []byte("immutable?")
	_ = NewLWW(Timestamp{Clock: 1}, buf)
	buf[0] = 'X' // violate the convention
	if err := VerifyPayloads(); err == nil {
		t.Fatal("guard missed an in-place payload mutation")
	}
}

// A capsuled clock cannot be ticked or observed into in place any more:
// Clock has no method that writes its receiver and no exported field, so
// construction enforces what the guard used to check for clocks. The
// dependency map is still a map, and the guard still covers it.
func TestGuardCatchesInPlaceMetadataMutation(t *testing.T) {
	mutations := map[string]func(deps map[string]Clock){
		"dep added to the capsuled map":    func(deps map[string]Clock) { deps["j"] = VectorClock{"x": 1}.Freeze() },
		"dep replaced in the capsuled map": func(deps map[string]Clock) { deps["k"] = deps["k"].Tick("x") },
	}
	for name, mutate := range mutations {
		GuardPayloads()
		c := NewCausalClock(VectorClock{"w": 1}.Freeze(), map[string]Clock{"k": VectorClock{"x": 1}.Freeze()}, nil)
		_ = c.Merge(NewCausal(VectorClock{"v": 1}, nil, []byte("sibling")))
		mutate(c.Versions[0].Deps) // violate the convention
		if err := VerifyPayloads(); err == nil {
			t.Errorf("guard missed: %s", name)
		}
	}
}

// TestGuardCatchesWriteThroughDepsUnion: a one-sibling capsule's
// DepsUnion is the version's own map, so a caller writing into it writes
// into the capsule, and the guard must say so.
func TestGuardCatchesWriteThroughDepsUnion(t *testing.T) {
	GuardPayloads()
	c := NewCausal(VectorClock{"w": 1}, map[string]VectorClock{"k": {"x": 1}}, []byte("v"))
	c.DepsUnion()["j"] = VectorClock{"x": 2}.Freeze() // violate the convention
	if err := VerifyPayloads(); err == nil {
		t.Fatal("guard missed a key added through a one-sibling DepsUnion")
	}
}

func TestGuardDisabledRecordsNothing(t *testing.T) {
	// Outside a GuardPayloads window, construction must not retain
	// payload references.
	_ = NewLWW(Timestamp{Clock: 1}, []byte("zzz"))
	if len(guardEntries) != 0 {
		t.Fatalf("guard recorded %d entries while disabled", len(guardEntries))
	}
}
