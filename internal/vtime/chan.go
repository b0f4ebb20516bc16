package vtime

import "time"

// Chan is a kernel-scheduled CSP channel. Capacity semantics match Go
// channels: capacity 0 is a rendezvous channel, capacity n buffers up to n
// values. A negative capacity makes the channel unbounded, which is the
// right shape for network inboxes that must accept deliveries from timer
// callbacks (callbacks cannot block).
//
// Channels are allocation-free in steady state: waiter records are pooled
// per channel and the buffer/waiter queues reset to their array start
// whenever they drain (see fifo).
type Chan[T any] struct {
	k      *Kernel
	buf    fifo[T]
	cap    int
	sendq  fifo[*sendWaiter[T]]
	recvq  fifo[*recvWaiter[T]]
	closed bool

	freeS FreeList[*sendWaiter[T]]
	freeR FreeList[*recvWaiter[T]]
}

type sendWaiter[T any] struct {
	p        *proc
	val      T
	done     bool // value consumed by a receiver
	onClosed bool // channel closed while waiting
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

// NewChan creates a channel on kernel k. capacity < 0 means unbounded.
func NewChan[T any](k *Kernel, capacity int) *Chan[T] {
	return &Chan[T]{k: k, cap: capacity}
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

func (c *Chan[T]) getSendWaiter(v T) *sendWaiter[T] {
	if w, ok := c.freeS.Get(); ok {
		w.p, w.val = c.k.current, v
		return w
	}
	return &sendWaiter[T]{p: c.k.current, val: v}
}

func (c *Chan[T]) putSendWaiter(w *sendWaiter[T]) {
	var zero T
	w.p, w.val = nil, zero
	w.done, w.onClosed = false, false
	c.freeS.Put(w)
}

// Close closes the channel. Blocked receivers observe zero values;
// blocked senders unwind with a panic, as in Go.
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
	c.sendq.each(func(w *sendWaiter[T]) {
		if !w.done {
			w.onClosed = true
			c.k.wake(w.p)
		}
	})
	c.sendq.reset()
}

// Send blocks until the value is accepted by the channel. Sending on a
// closed channel panics.
func (c *Chan[T]) Send(v T) {
	if c.TrySend(v) {
		return
	}
	w := c.getSendWaiter(v)
	c.sendq.push(w)
	c.k.park()
	if w.onClosed {
		panic("vtime: send on closed Chan")
	}
	// done: a receiver detached us from the queue; safe to recycle.
	c.putSendWaiter(w)
}

// TrySend delivers v without blocking and reports whether it succeeded.
// Timer callbacks and non-process code may use it only on channels where
// it cannot fail to wake state correctly — in practice, unbounded inboxes.
func (c *Chan[T]) TrySend(v T) bool {
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
		return true
	}
	if c.cap < 0 || c.buf.len() < c.cap {
		c.buf.push(v)
		return true
	}
	return false
}

// Recv blocks until a value is available. ok is false when the channel is
// closed and drained.
func (c *Chan[T]) Recv() (v T, ok bool) {
	if v, ok, got := c.tryRecv(); got {
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
	return c.tryRecv()
}

func (c *Chan[T]) tryRecv() (v T, ok bool, got bool) {
	if c.buf.len() > 0 {
		v = c.buf.pop()
		c.refillFromSenders()
		return v, true, true
	}
	// Rendezvous with a blocked sender.
	for c.sendq.len() > 0 {
		w := c.sendq.pop()
		if w.done {
			continue
		}
		w.done = true
		c.k.wake(w.p)
		return w.val, true, true
	}
	if c.closed {
		var zero T
		return zero, false, true
	}
	return v, false, false
}

// refillFromSenders moves one blocked sender's value into freed buffer
// space, preserving FIFO order.
func (c *Chan[T]) refillFromSenders() {
	for c.sendq.len() > 0 && (c.cap < 0 || c.buf.len() < c.cap) {
		w := c.sendq.pop()
		if w.done {
			continue
		}
		w.done = true
		c.buf.push(w.val)
		c.k.wake(w.p)
	}
}

// RecvTimeout receives with a deadline. timedOut is true when the deadline
// elapsed with no value; ok mirrors Recv's closed semantics.
func (c *Chan[T]) RecvTimeout(d time.Duration) (v T, ok bool, timedOut bool) {
	if v, ok, got := c.tryRecv(); got {
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
