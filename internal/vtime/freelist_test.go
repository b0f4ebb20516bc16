package vtime

import (
	"runtime"
	"testing"
	"weak"
)

// TestFreeListLIFO: values come back newest first, and Len counts what
// the list holds.
func TestFreeListLIFO(t *testing.T) {
	var l FreeList[int]
	if v, ok := l.Get(); ok || v != 0 || l.Len() != 0 {
		t.Fatalf("empty list: Get = %d, %v and Len %d; want 0, false and 0", v, ok, l.Len())
	}
	for i := 1; i <= 3; i++ {
		l.Put(i)
		if l.Len() != i {
			t.Fatalf("after %d Puts: Len %d", i, l.Len())
		}
	}
	for want := 3; want >= 1; want-- {
		if v, ok := l.Get(); !ok || v != want {
			t.Fatalf("Get = %d, %v; want %d, true", v, ok, want)
		}
		if l.Len() != want-1 {
			t.Fatalf("after taking %d: Len %d, want %d", want, l.Len(), want-1)
		}
	}
	if _, ok := l.Get(); ok {
		t.Fatal("a drained list still gives values")
	}
}

// TestFreeListMax: Put keeps at most Max values and drops the rest, and a
// zero Max keeps every value.
func TestFreeListMax(t *testing.T) {
	bounded := FreeList[int]{Max: 2}
	var unbounded FreeList[int]
	for i := 1; i <= 100; i++ {
		bounded.Put(i)
		unbounded.Put(i)
	}
	if bounded.Len() != 2 || unbounded.Len() != 100 {
		t.Fatalf("after 100 Puts: Len %d with Max 2, %d with none; want 2 and 100", bounded.Len(), unbounded.Len())
	}
	if v, _ := bounded.Get(); v != 2 {
		t.Fatalf("bounded list's newest is %d, want 2: the Puts past Max are dropped", v)
	}
	bounded.Put(7)
	if v, _ := bounded.Get(); v != 7 {
		t.Fatalf("a list below Max dropped a Put: newest %d, want 7", v)
	}
}

// TestFreeListClearsPoppedSlot: a value taken off the list and dropped is
// collectable, though the list keeps its array.
func TestFreeListClearsPoppedSlot(t *testing.T) {
	type record struct{ b [64]byte }
	var l FreeList[*record]
	l.Put(new(record))
	l.Put(new(record))
	v, _ := l.Get()
	w := weak.Make(v)
	v = nil
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("the popped value is still reachable through the list")
	}
	if l.Len() != 1 {
		t.Fatalf("Len %d, want 1", l.Len())
	}
	runtime.KeepAlive(&l)
}

// TestFreeListAllocationFree: a Get and Put on a warm list allocate
// nothing.
func TestFreeListAllocationFree(t *testing.T) {
	l := FreeList[*int]{Max: 4}
	l.Put(new(int))
	if allocs := testing.AllocsPerRun(100, func() {
		v, _ := l.Get()
		l.Put(v)
	}); allocs != 0 {
		t.Fatalf("warm Get+Put: %.1f allocations, want 0", allocs)
	}
}
