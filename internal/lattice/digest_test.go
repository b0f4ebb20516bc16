package lattice

import "testing"

func TestVectorClockDigestCanonical(t *testing.T) {
	a := VectorClock{"t1": 3, "t2": 7}.Freeze()
	b := VectorClock{"t2": 7}.Freeze().Join(VectorClock{"t1": 3}.Freeze()) // same clock, built another way
	if a.Digest() != b.Digest() {
		t.Fatal("equal clocks produced different digests")
	}
	if a.Digest() == (VectorClock{"t1": 3, "t2": 8}).Freeze().Digest() {
		t.Fatal("different counters collided")
	}
	if a.Digest() == (VectorClock{"t1": 3}).Freeze().Digest() {
		t.Fatal("subset clock collided")
	}
	if (Clock{}).Digest() != 0 {
		t.Fatal("empty clock digest not zero")
	}
}

func TestCausalDigestNamesSiblingSet(t *testing.T) {
	one := NewCausal(VectorClock{"a": 1}, nil, []byte("va"))
	two := NewCausal(VectorClock{"b": 1}, nil, []byte("vb"))
	merged := one.Merge(two).(*Causal)
	mergedOther := two.Merge(one).(*Causal)
	if merged.Digest() != mergedOther.Digest() {
		t.Fatal("merge order changed digest")
	}
	// A single write whose clock equals the siblings' join is a different
	// capsule and must not collide with the two-sibling set.
	joined := NewCausal(VectorClock{"a": 1, "b": 1}, nil, []byte("vj"))
	if merged.Digest() == joined.Digest() {
		t.Fatal("sibling set collided with joined single write")
	}
	if one.Digest() == two.Digest() {
		t.Fatal("distinct single versions collided")
	}
}
