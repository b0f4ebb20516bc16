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

func TestGuardDisabledRecordsNothing(t *testing.T) {
	// Outside a GuardPayloads window, construction must not retain
	// payload references.
	_ = NewLWW(Timestamp{Clock: 1}, []byte("zzz"))
	if len(guardEntries) != 0 {
		t.Fatalf("guard recorded %d entries while disabled", len(guardEntries))
	}
}
