package vtime

// WaitGroup mirrors sync.WaitGroup on virtual time.
type WaitGroup struct {
	k     *Kernel
	count int
	waitq fifo[*proc]
}

// NewWaitGroup creates a WaitGroup on kernel k.
func NewWaitGroup(k *Kernel) *WaitGroup { return &WaitGroup{k: k} }

// Add adjusts the counter by delta.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic("vtime: negative WaitGroup counter")
	}
	if w.count == 0 {
		w.waitq.each(w.k.wake)
		w.waitq.reset()
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks until the counter reaches zero.
func (w *WaitGroup) Wait() {
	if w.count == 0 {
		return
	}
	w.waitq.push(w.k.current)
	w.k.park()
}

// Semaphore is a counting semaphore: Acquire blocks while no permits are
// available. It models occupancy of a contended resource (a worker pool, a
// single-master write path) so queueing delay emerges naturally in
// simulations.
type Semaphore struct {
	k       *Kernel
	permits int
	waitq   fifo[*proc]
}

// NewSemaphore creates a semaphore holding n permits.
func NewSemaphore(k *Kernel, n int) *Semaphore { return &Semaphore{k: k, permits: n} }

// Acquire takes one permit, blocking until one is free.
func (s *Semaphore) Acquire() {
	if s.permits > 0 {
		s.permits--
		return
	}
	s.waitq.push(s.k.current)
	s.k.park()
	// The releasing process transferred a permit directly to us.
}

// Release returns one permit, handing it to the longest waiter if any.
func (s *Semaphore) Release() {
	if s.waitq.len() > 0 {
		s.k.wake(s.waitq.pop())
		return
	}
	s.permits++
}
