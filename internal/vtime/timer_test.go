package vtime

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestPendingTimersTrackSleepers is the tripwire for a leaking timer heap:
// an answered call's timeout must leave the heap when the answer arrives,
// not when its deadline passes, so after any number of answered calls the
// heap holds exactly the parked sleepers.
func TestPendingTimersTrackSleepers(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	const (
		calls    = 10000
		sleepers = 3
	)
	k.Run("main", func() {
		for i := 0; i < sleepers; i++ {
			k.Go("sleeper", func() { k.Sleep(time.Hour) })
		}
		// The shape of simnet's Endpoint.Call: a request to a server
		// process, then a wait on the reply with a 30 s budget.
		reqs := NewChan[*Chan[int]](k, -1)
		k.Go("server", func() {
			for {
				reply, ok := reqs.Recv()
				if !ok {
					return
				}
				k.Sleep(100 * time.Microsecond)
				reply.Send(1)
			}
		})
		reply := NewChan[int](k, -1)
		for i := 0; i < calls; i++ {
			reqs.Send(reply)
			if _, _, timedOut := reply.RecvTimeout(30 * time.Second); timedOut {
				t.Errorf("call %d timed out", i)
				return
			}
		}
		reqs.Close()
		if got := len(k.timers); got != sleepers {
			t.Errorf("%d timers pending after %d answered calls, want %d (the parked sleepers)",
				got, calls, sleepers)
		}
		if k.Now() >= Time(30*time.Second) {
			t.Errorf("clock at %v: the test must finish inside the first call's budget", k.Now())
		}
	})
}

// deliverEvent sends one value when its timer fires, the way simnet's
// delivery does.
type deliverEvent struct{ ch *Chan[int] }

func (e *deliverEvent) Fire() { e.ch.Send(7) }

// TestRecvTimeoutSameInstantAsDelivery covers a deadline and a delivery
// that land on the same instant, in both creation orders. Whichever fires
// first decides the receive; the loser must leave every other timer alone
// — in particular the receiver of a timeout that fired must not "cancel"
// its timer, which is already released and has no place in the heap.
func TestRecvTimeoutSameInstantAsDelivery(t *testing.T) {
	const d = time.Millisecond
	for _, deliveryFirst := range []bool{true, false} {
		k := NewKernel(1)
		var bystanderWoke Time
		k.Run("main", func() {
			k.Go("bystander", func() { k.Sleep(3 * d); bystanderWoke = k.Now() })
			ch := NewChan[int](k, -1)
			if deliveryFirst {
				k.AfterEvent(d, &deliverEvent{ch})
			} else {
				// Runs once main has parked and armed its timeout, so the
				// delivery's timer is the younger of the two.
				k.Go("late-sender", func() { k.AfterEvent(d, &deliverEvent{ch}) })
			}
			v, ok, timedOut := ch.RecvTimeout(d)
			if k.Now() != Time(d) {
				t.Errorf("deliveryFirst=%v: receive returned at %v, want %v", deliveryFirst, k.Now(), d)
			}
			if deliveryFirst && (timedOut || !ok || v != 7) {
				t.Errorf("delivery first: RecvTimeout = %d %v %v, want the value", v, ok, timedOut)
			}
			if !deliveryFirst && !timedOut {
				t.Error("timeout first: RecvTimeout returned a value, want timedOut")
			}
			// Left in the heap: the bystander's sleep, plus the delivery
			// event still due this instant when the timeout won.
			want := 1
			if !deliveryFirst {
				want = 2
			}
			if got := len(k.timers); got != want {
				t.Errorf("deliveryFirst=%v: %d timers pending, want %d", deliveryFirst, got, want)
			}
			k.Sleep(5 * d)
			if !deliveryFirst {
				if v, _, got := ch.TryRecv(); !got || v != 7 {
					t.Errorf("timeout first: late value = %d (got=%v), want 7 buffered", v, got)
				}
			}
		})
		k.Stop()
		if bystanderWoke != Time(3*d) {
			t.Fatalf("deliveryFirst=%v: bystander woke at %v, want %v", deliveryFirst, bystanderWoke, 3*d)
		}
	}
}

// TestCancelIgnoresRecycledTimer pins the gen guard directly: a cancel
// handle that outlives its timer's firing must not touch the entry once
// the pool has handed it to someone else.
func TestCancelIgnoresRecycledTimer(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	var fired []int
	k.Run("main", func() {
		old := k.addTimer(time.Millisecond)
		old.ev = &recordEvent{&fired, 1}
		gen := old.gen
		k.Sleep(2 * time.Millisecond) // old fires and returns to the pool

		// Two fresh timers drain the pool: the Sleep's entry and old.
		k.AfterEvent(time.Millisecond, &recordEvent{&fired, 2})
		k.AfterEvent(2*time.Millisecond, &recordEvent{&fired, 3})
		if !slices.ContainsFunc(k.timers, func(s slot) bool { return s.t == old }) {
			t.Error("test premise: the pool did not hand the fired timer out again")
			return
		}
		k.cancelTimer(old, gen) // stale handle
		if len(k.timers) != 2 {
			t.Errorf("stale cancel removed a recycled timer: %d pending, want 2", len(k.timers))
			return
		}
		k.Sleep(3 * time.Millisecond)
	})
	if !slices.Equal(fired, []int{1, 2, 3}) {
		t.Fatalf("fired = %v, want [1 2 3]", fired)
	}
}

// TestEqualTimersKeepOrderAfterRemovals arms many timers for one instant,
// cancels a scattered third of them out of the middle of the heap, and
// requires the rest to fire in creation order all the same.
func TestEqualTimersKeepOrderAfterRemovals(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	const n = 200
	var fired, want []int
	k.Run("main", func() {
		var answered []*Chan[int]
		// Each process arms its timer when first dispatched, which is in
		// spawn order, so timer seq follows i.
		for i := 0; i < n; i++ {
			switch {
			case i%3 == 0: // a receive that will be answered: timer cancelled
				ch := NewChan[int](k, -1)
				answered = append(answered, ch)
				k.Go("answered", func() {
					if _, _, timedOut := ch.RecvTimeout(10 * time.Millisecond); timedOut {
						t.Error("answered receive timed out")
					}
				})
			case i%3 == 1: // a receive left to time out
				want = append(want, i)
				k.Go("unanswered", func() {
					NewChan[int](k, -1).RecvTimeout(10 * time.Millisecond)
					fired = append(fired, i)
				})
			default: // a plain event
				want = append(want, i)
				k.Go("event", func() { k.AfterEvent(10*time.Millisecond, &recordEvent{&fired, i}) })
			}
		}
		k.Sleep(5 * time.Millisecond)
		if len(k.timers) != n {
			t.Errorf("%d timers armed, want %d", len(k.timers), n)
			return
		}
		// Answer back to front and then the odd ones, so removals hit
		// leaves, inner nodes and the root's neighbourhood alike.
		for i := len(answered) - 1; i >= 0; i -= 2 {
			answered[i].Send(1)
		}
		for i := len(answered) - 2; i >= 0; i -= 2 {
			answered[i].Send(1)
		}
		k.Sleep(time.Millisecond)
		if got := len(k.timers); got != len(want) {
			t.Errorf("%d timers pending after the answers, want %d", got, len(want))
		}
		k.Sleep(10 * time.Millisecond)
	})
	if len(fired) != len(want) {
		t.Fatalf("%d timers fired, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fire order diverges at %d: got %d, want %d", i, fired[i], want[i])
		}
	}
}

// refHeap is the container/heap form the kernel's timer heap replaced,
// kept as the oracle for TestTimerHeapMatchesContainerHeap.
type refHeap []slot

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].t.index, h[j].t.index = i, j
}
func (h *refHeap) Push(x any) {
	s := x.(slot)
	s.t.index = len(*h)
	*h = append(*h, s)
}
func (h *refHeap) Pop() any {
	old := *h
	s := old[len(old)-1]
	*h = old[:len(old)-1]
	return s
}

// TestTimerHeapMatchesContainerHeap runs seeded random schedules of
// pushes (with many equal instants), cancels of random pending timers and
// pops on the 4-ary heap and on container/heap side by side: every pop
// and every cancel must return the same timer, the sizes must agree, and
// every pending timer's index must name its own slot.
func TestTimerHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		var got timerHeap
		var want refHeap
		var live []*timer // pending on got; each has a twin pending on want
		twin := map[*timer]*timer{}
		seq := int64(0)
		for op := 0; op < 2000; op++ {
			switch n := r.Intn(10); {
			case n < 5: // push; a narrow time range makes ties common
				seq++
				when := Time(r.Intn(50))
				a, b := &timer{}, &timer{}
				got = append(got, slot{when, seq, a})
				got.up(len(got) - 1)
				heap.Push(&want, slot{when, seq, b})
				live = append(live, a)
				twin[a] = b
			case n < 7 && len(live) > 0: // cancel
				i := r.Intn(len(live))
				a := live[i]
				live = slices.Delete(live, i, i+1)
				g, w := got.remove(a.index), heap.Remove(&want, twin[a].index).(slot)
				if g.t != a || w.t != twin[a] || g.seq != w.seq {
					t.Fatalf("seed %d op %d: cancel removed seq %d, oracle %d", seed, op, g.seq, w.seq)
				}
			case len(live) > 0: // pop
				g, w := got.remove(0), heap.Pop(&want).(slot)
				if g.when != w.when || g.seq != w.seq || twin[g.t] != w.t {
					t.Fatalf("seed %d op %d: popped (%d, %d), oracle (%d, %d)", seed, op, g.when, g.seq, w.when, w.seq)
				}
				live = slices.DeleteFunc(live, func(x *timer) bool { return x == g.t })
			}
			if len(got) != len(want) || len(got) != len(live) {
				t.Fatalf("seed %d op %d: %d pending, oracle %d, live %d", seed, op, len(got), len(want), len(live))
			}
			for i, s := range got {
				if s.t.index != i {
					t.Fatalf("seed %d op %d: slot %d's timer has index %d", seed, op, i, s.t.index)
				}
			}
		}
	}
}

// countEvent counts its fires.
type countEvent struct{ n int }

func (e *countEvent) Fire() { e.n++ }

// TestTimerHeapAllocationFree pins the timer heap at no allocation: on a
// warm kernel, arming 64 timers over a range of instants, cancelling
// every third and firing the rest allocate nothing.
func TestTimerHeapAllocationFree(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	ev := &countEvent{}
	armed := make([]*timer, 0, 64)
	cycle := func() {
		armed = armed[:0]
		for i := 0; i < 64; i++ {
			tm := k.addTimer(time.Duration(i*37%16) * time.Millisecond)
			tm.ev = ev
			armed = append(armed, tm)
		}
		for i := 0; i < len(armed); i += 3 {
			k.cancelTimer(armed[i], armed[i].gen)
		}
		for k.advance() {
		}
	}
	cycle() // grow the heap and fill the timer pool
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a cycle of 64 timers allocates %.1f times, want 0", n)
	}
	if want := 42 * 102; ev.n != want {
		t.Fatalf("%d events fired, want %d", ev.n, want)
	}
}
