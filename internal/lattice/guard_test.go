package lattice

import "testing"

func TestGuardPassesWhenImmutable(t *testing.T) {
	GuardPayloads()
	a := NewLWW(Timestamp{Clock: 1}, []byte("aaa"))
	b := NewLWW(Timestamp{Clock: 2}, []byte("bbb"))
	a.Merge(b.Clone())
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

func TestGuardCatchesInPlaceMetadataMutation(t *testing.T) {
	mutations := map[string]func(vc VectorClock, deps map[string]VectorClock){
		"tick on the capsuled clock":  func(vc VectorClock, _ map[string]VectorClock) { vc.Tick("w") },
		"observe into a capsuled dep": func(_ VectorClock, deps map[string]VectorClock) { deps["k"].Observe(VectorClock{"x": 9}) },
		"dep added to the capsuled map": func(_ VectorClock, deps map[string]VectorClock) {
			deps["j"] = VectorClock{"x": 1}
		},
	}
	for name, mutate := range mutations {
		GuardPayloads()
		vc, deps := VectorClock{"w": 1}, map[string]VectorClock{"k": {"x": 1}}
		c := NewCausal(vc, deps, nil)
		c.Clone().Merge(NewCausal(VectorClock{"v": 1}, nil, []byte("sibling")))
		mutate(vc, deps) // violate the convention
		if err := VerifyPayloads(); err == nil {
			t.Errorf("guard missed: %s", name)
		}
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
