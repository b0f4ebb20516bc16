package vtime

import "time"

// Chan is a kernel-scheduled mailbox: an unbounded FIFO whose Send never
// parks, so processes, timer callbacks and non-process code may all send
// on it. Only receivers block: Recv and RecvTimeout park until a value
// arrives or the mailbox is closed. That is the shape of every inbox in
// the simulation, where a network delivery lands from a timer callback
// and a sender never waits for its receiver.
//
// Mailboxes are allocation-free in steady state: receive waiters are
// pooled per mailbox and the buffer and waiter queues reset to their
// array start whenever they drain (see fifo).
type Chan[T any] struct {
	k      *Kernel
	buf    fifo[T]
	recvq  fifo[*recvWaiter[T]]
	closed bool

	freeR FreeList[*recvWaiter[T]]
}

type recvWaiter[T any] struct {
	c        *Chan[T]
	p        *proc
	val      T
	ok       bool
	done     bool // value delivered (or closed-empty observed)
	timedOut bool
}

// Fire implements Event: it is the waiter's receive-timeout callback.
func (w *recvWaiter[T]) Fire() {
	if !w.done {
		w.timedOut = true
		w.c.k.wake(w.p)
	}
}

// NewChan creates a mailbox on kernel k. capacity is ignored: every
// mailbox is unbounded, and callers pass -1.
func NewChan[T any](k *Kernel, capacity int) *Chan[T] {
	return &Chan[T]{k: k}
}

// Len reports the number of buffered values.
func (c *Chan[T]) Len() int { return c.buf.len() }

// getRecvWaiter takes a pooled waiter for the current process.
func (c *Chan[T]) getRecvWaiter() *recvWaiter[T] {
	if w, ok := c.freeR.Get(); ok {
		w.p = c.k.current
		return w
	}
	return &recvWaiter[T]{c: c, p: c.k.current}
}

// putRecvWaiter recycles a waiter that is no longer referenced by the
// receive queue or any pending timer callback's liveness check.
func (c *Chan[T]) putRecvWaiter(w *recvWaiter[T]) {
	var zero T
	w.p, w.val = nil, zero
	w.ok, w.done, w.timedOut = false, false, false
	c.freeR.Put(w)
}

// Close closes the mailbox. Blocked receivers observe zero values; values
// already buffered are still received before the closed indication.
func (c *Chan[T]) Close() {
	if c.closed {
		panic("vtime: close of closed Chan")
	}
	c.closed = true
	c.recvq.each(func(w *recvWaiter[T]) {
		if !w.done {
			w.done = true
			w.ok = false
			c.k.wake(w.p)
		}
	})
	c.recvq.reset()
}

// Send delivers v without blocking: it hands v to the oldest waiting
// receiver, or buffers it. Sending on a closed mailbox panics.
func (c *Chan[T]) Send(v T) {
	if c.closed {
		panic("vtime: send on closed Chan")
	}
	// Hand directly to a waiting receiver if any (skip consumed waiters).
	for c.recvq.len() > 0 {
		w := c.recvq.pop()
		if w.done || w.timedOut {
			continue
		}
		w.val = v
		w.ok = true
		w.done = true
		c.k.wake(w.p)
		return
	}
	c.buf.push(v)
}

// Recv blocks until a value is available. ok is false when the mailbox is
// closed and drained.
func (c *Chan[T]) Recv() (v T, ok bool) {
	if v, ok, got := c.TryRecv(); got {
		return v, ok
	}
	w := c.getRecvWaiter()
	c.recvq.push(w)
	c.k.park()
	// done: a sender (or Close) detached us from the queue.
	v, ok = w.val, w.ok
	c.putRecvWaiter(w)
	return v, ok
}

// TryRecv receives without blocking. got reports whether a value (or a
// closed indication) was available.
func (c *Chan[T]) TryRecv() (v T, ok bool, got bool) {
	if c.buf.len() > 0 {
		return c.buf.pop(), true, true
	}
	if c.closed {
		return v, false, true
	}
	return v, false, false
}

// RecvTimeout receives with a deadline. timedOut is true when the deadline
// elapsed with no value; ok mirrors Recv's closed semantics.
func (c *Chan[T]) RecvTimeout(d time.Duration) (v T, ok bool, timedOut bool) {
	if v, ok, got := c.TryRecv(); got {
		return v, ok, false
	}
	w := c.getRecvWaiter()
	c.recvq.push(w)
	t := c.k.addTimer(d)
	t.ev = w
	gen := t.gen
	c.k.park()
	c.k.cancelTimer(t, gen)
	if w.timedOut {
		// Detach from the receive queue (a sender has not popped us)
		// before recycling, so a later send cannot resolve to a stale
		// waiter.
		c.recvq.remove(func(q *recvWaiter[T]) bool { return q == w })
		c.putRecvWaiter(w)
		return v, false, true
	}
	v, ok = w.val, w.ok
	c.putRecvWaiter(w)
	return v, ok, false
}
