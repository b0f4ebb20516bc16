package vtime

import (
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

func (e *deliverEvent) Fire() { e.ch.TrySend(7) }

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
		if !slices.Contains(k.timers, old) {
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
