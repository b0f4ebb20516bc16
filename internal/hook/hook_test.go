package hook

import "testing"

func TestFireDisarmsOnce(t *testing.T) {
	r := NewRegistry()
	var got []string
	r.Arm("p/cut", func(entity string) bool {
		got = append(got, entity)
		return true
	})
	if !r.Fire("p/cut", "vm0") {
		t.Fatal("first fire should trigger")
	}
	if r.Fire("p/cut", "vm0") {
		t.Fatal("second fire should be a no-op (one-shot)")
	}
	if len(got) != 1 || got[0] != "vm0" {
		t.Fatalf("callback saw %v, want [vm0]", got)
	}
	if r.Fire("other/cut", "vm0") {
		t.Fatal("a hook nothing armed must not trigger")
	}
}

func TestEntityFilterKeepsArmed(t *testing.T) {
	r := NewRegistry()
	r.Arm("p/cut", func(entity string) bool { return entity == "vm1" })
	if r.Fire("p/cut", "vm0") {
		t.Fatal("filtered entity must not trigger")
	}
	// A non-matching fire keeps the trap armed: the match still springs it.
	if !r.Fire("p/cut", "vm1") {
		t.Fatal("matching entity must trigger")
	}
	if r.Fire("p/cut", "vm1") {
		t.Fatal("a sprung trap must be disarmed")
	}
}

func TestCallbacksFireInArmOrder(t *testing.T) {
	r := NewRegistry()
	var order []int
	for i := 0; i < 3; i++ {
		r.Arm("p/cut", func(string) bool {
			order = append(order, i)
			return true
		})
	}
	for range 3 {
		if !r.Fire("p/cut", "vm0") {
			t.Fatal("an armed callback did not trigger")
		}
	}
	if r.Fire("p/cut", "vm0") {
		t.Fatal("every callback was one-shot")
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("fire order %v, want [0 1 2]", order)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	if r.Fire("p/cut", "vm0") {
		t.Fatal("nil registry must never trigger")
	}
}
