// Package vtime implements a deterministic virtual-time kernel: a
// discrete-event simulation substrate on which concurrent processes are
// written in ordinary blocking Go style (goroutines, channels, sleeps)
// while time advances only when every process is blocked.
//
// The kernel runs exactly one process at a time, which makes every
// simulation run fully deterministic for a fixed seed and program: there is
// no wall-clock in the loop and no OS-scheduler nondeterminism. A
// ten-minute cluster trace replays in milliseconds of real time.
//
// A process is a runtime coroutine (iter.Pull), and the scheduling token
// is the coroutine switch itself: Run's loop resumes the head of the run
// queue with next, and a process that blocks hands control straight back
// with yield, so a dispatch is two coroutine switches on one OS thread and
// never passes through Go's scheduler. Run's loop owns the clock, the run
// queue and the timer heap, so an Event fires on Run's goroutine while no
// process holds the token, and must not block. A body that panics or calls
// runtime.Goexit (t.Fatalf in a test) ends its coroutine, and iter.Pull
// re-raises it in the caller of Run (or of Stop, if the body fails while
// being unwound); the dead process leaves the live set, so Stop returns.
//
// # Allocation discipline
//
// The kernel is the floor of the simulation's real-CPU cost, so its hot
// paths are amortized allocation-free:
//
//   - Kernel.Go reuses parked coroutines: when a process body returns, its
//     coroutine (and proc state) parks on a FreeList and the next Go
//     re-arms it instead of creating one. Kernel.Stats reports the
//     spawn/reuse split so tests can assert reuse.
//   - Timer-heap entries come from a pool, and no scheduling takes a
//     closure: Sleep stores the process to wake directly in the timer, and
//     AfterEvent takes a caller-pooled Event instead of a func. A cancelled
//     timer (a RecvTimeout whose value arrived) leaves the heap and returns
//     to the pool at once, so the heap holds only timers that will fire: its
//     size follows the number of parked sleepers and in-flight events, not
//     the number of answered calls whose deadline has yet to pass.
//   - Chan receive waiters are pooled per mailbox, and queue slices (run
//     queue, mailbox buffers, waiter lists) reset to their start when
//     drained, so steady-state traffic reuses one backing array.
//
// Every pool is a FreeList, the one free-list type of the simulation.
//
// All blocking must go through kernel primitives: Kernel.Sleep, Chan
// receive, WaitGroup, Semaphore. Calling a blocking primitive from a
// goroutine that is not a kernel process is a programming error and
// panics. Chan.Send never blocks, so timer callbacks may send.
package vtime

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"slices"
	"time"
)

// Time is a virtual instant, in nanoseconds since the start of the
// simulation.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds reports t as floating-point seconds since the simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// procState records where a process currently is in its lifecycle. It is
// only ever touched by the party holding the scheduling token, so it needs
// no lock.
type procState uint8

const (
	stateRunnable procState = iota // in the run queue, waiting for dispatch
	stateRunning                   // currently holds the token
	stateParked                    // blocked in a waiter list or timer
	stateDone                      // finished (idle on the free list)
)

// proc is a kernel process: one coroutine that the scheduler resumes with
// next and that hands the token back with yield. A proc outlives the
// bodies it runs: after a body returns, the coroutine parks on the
// kernel's free list until Go re-arms it with a new body.
type proc struct {
	id     int64
	name   string
	next   func() (struct{}, bool) // scheduler -> process: token grant
	yield  func(struct{}) bool     // process -> scheduler: token return
	stop   func()                  // ends an idle coroutine (Stop)
	state  procState
	killed bool // set by Stop; the next resume unwinds the process
	body   func()
	runner Runner // closure-free alternative to body (GoRunner)
	k      *Kernel
}

// killedPanic unwinds a process that is being terminated by Kernel.Stop.
type killedPanic struct{}

// Runner is a reusable process body: GoRunner runs r.Run() as a kernel
// process without allocating a per-spawn closure. Hot dispatch paths
// (e.g. simnet's concurrent dispatcher) hand the kernel pooled Runner
// objects carrying their own arguments, so steady-state traffic spawns
// processes allocation-free.
type Runner interface{ Run() }

// Event is a pooled timer callback: AfterEvent schedules ev.Fire() at a
// future instant without allocating a closure. Fire runs on Run's
// goroutine while no process holds the token; it must not block.
type Event interface{ Fire() }

// timer is a scheduled callback. Exactly one of wake and ev is set: wake
// resumes a parked process (Sleep), ev fires a pooled Event.
type timer struct {
	wake  *proc
	ev    Event
	index int    // position of its slot in the heap, so cancel can remove it
	gen   uint64 // bumped on recycle, so stale cancels are no-ops
}

// slot is a timer-heap entry: a timer and its key, held in the slot so a
// sift compares without following the pointer. seq breaks ties so
// equal-time timers fire in creation order; it is unique, so the order is
// total and every heap pops the same sequence.
type slot struct {
	when Time
	seq  int64
	t    *timer
}

func (a slot) before(b slot) bool { return a.when < b.when || a.when == b.when && a.seq < b.seq }

// timerHeap is a 4-ary min-heap of slots by (when, seq): half the depth
// of a binary heap, and a node's four children share a cache line or two.
type timerHeap []slot

// set puts s at i and tells its timer where it is.
func (h timerHeap) set(i int, s slot) { h[i] = s; s.t.index = i }

// remove takes out the slot at i and returns it.
func (h *timerHeap) remove(i int) slot {
	old, n := *h, len(*h)-1
	s := old[i]
	old[i], old[n] = old[n], slot{} // drop the reference for GC
	*h = old[:n]
	if i < n && !h.down(i) {
		h.up(i)
	}
	return s
}

// up moves the slot at i toward the root until its parent is before it.
func (h timerHeap) up(i int) {
	s := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !s.before(h[p]) {
			break
		}
		h.set(i, h[p])
		i = p
	}
	h.set(i, s)
}

// down moves the slot at i toward the leaves until it is before its
// children, and reports whether it moved.
func (h timerHeap) down(i int) bool {
	s, at := h[i], i
	for c := 4*i + 1; c < len(h); c = 4*i + 1 {
		m := c
		for j := c + 1; j < c+4 && j < len(h); j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(s) {
			break
		}
		h.set(i, h[m])
		i = m
	}
	h.set(i, s)
	return i > at
}

// Stats are the kernel's lifetime counters, exposed for tests and
// reports. Spawns vs Reuses measures the process free list: a hot
// simulation should reuse parked coroutines for almost every Go call.
type Stats struct {
	Spawns     int64 // Kernel.Go calls that created a new coroutine
	Reuses     int64 // Kernel.Go calls served from the process free list
	Dispatches int64 // token grants to processes
	TimerFires int64 // timers fired
	LiveProcs  int64 // processes currently running, runnable, or parked
}

// Kernel is a deterministic virtual-time scheduler. The zero value is not
// usable; call NewKernel.
type Kernel struct {
	now     Time
	runq    fifo[*proc]
	timers  timerHeap
	current *proc
	running bool // a Run call is in progress
	stopped bool
	nextID  int64
	nextSeq int64
	live    map[int64]*proc // all non-done procs, for Stop and deadlock dumps
	rng     *rand.Rand

	freeProcs  FreeList[*proc]  // parked coroutines awaiting a new body
	freeTimers FreeList[*timer] // recycled heap entries

	stats Stats
}

// NewKernel returns a kernel whose random source is seeded with seed.
// Identical programs on identically-seeded kernels produce identical
// traces.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		live: make(map[int64]*proc),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from kernel processes (or between Run calls), never concurrently.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Stats returns the kernel's lifetime counters plus the current live
// process count — the lifecycle tests use LiveProcs to assert that
// crash/restart cycles do not leak parked serve loops.
func (k *Kernel) Stats() Stats {
	s := k.stats
	s.LiveProcs = int64(len(k.live))
	return s
}

// Runnable reports whether a process waits in the run queue: asked by
// the running process, whether another will run before the clock moves.
func (k *Kernel) Runnable() bool { return k.runq.len() > 0 }

// Go spawns fn as a new kernel process. It may be called from a running
// process or from outside the kernel between Run invocations. The process
// is runnable immediately but does not execute until the scheduler
// dispatches it. Parked coroutines from completed processes are reused.
func (k *Kernel) Go(name string, fn func()) { k.launch(name, fn, nil) }

// GoRunner spawns r.Run() as a kernel process — Go without the closure:
// the Runner is typically a caller-pooled object carrying its own
// arguments, so spawning allocates nothing once the process free list
// is warm.
func (k *Kernel) GoRunner(name string, r Runner) { k.launch(name, nil, r) }

// launch arms a free-list (or fresh) process with the next body; exactly
// one of fn and r is set.
func (k *Kernel) launch(name string, fn func(), r Runner) {
	if k.stopped {
		panic("vtime: Go on stopped kernel")
	}
	k.nextID++
	p, ok := k.freeProcs.Get()
	if ok {
		p.id, p.name, p.body, p.runner = k.nextID, name, fn, r
		p.state = stateRunnable
		p.killed = false
		k.stats.Reuses++
	} else {
		p = &proc{
			id:     k.nextID,
			name:   name,
			state:  stateRunnable,
			body:   fn,
			runner: r,
			k:      k,
		}
		p.next, p.stop = iter.Pull(p.top)
		k.stats.Spawns++
	}
	k.live[p.id] = p
	k.runq.push(p)
}

// top is the body of every process coroutine, entered by the first token
// grant: run the current body, park on the free list, and repeat when Go
// has re-armed the proc and the scheduler resumes it. The coroutine ends
// when Stop ends it (yield reports false), or when a body panics or
// calls runtime.Goexit, which iter.Pull re-raises in the caller of next.
func (p *proc) top(yield func(struct{}) bool) {
	p.yield = yield
	// Only an abnormal exit gets here with the proc still live; it can
	// never be resumed, so Stop must not wait on it.
	defer func() { delete(p.k.live, p.id) }()
	for {
		p.runBody()
		p.state = stateDone
		delete(p.k.live, p.id)
		p.body, p.runner = nil, nil
		p.k.freeProcs.Put(p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody executes one body, absorbing the kill unwind so the coroutine
// can be reused.
func (p *proc) runBody() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedPanic); !ok {
				// iter.Pull re-raises this in the scheduler's caller,
				// where the process's own stack is gone: carry it, and
				// note which process died.
				panic(fmt.Sprintf("vtime: process %q panicked: %v\n%s", p.name, r, debug.Stack()))
			}
		}
	}()
	p.resumed()
	if p.body != nil {
		p.body()
	} else {
		p.runner.Run()
	}
}

// park blocks the calling process until another party wakes it. The caller
// must already have registered itself in whatever waiter structure will
// wake it. park panics with killedPanic if the kernel is stopping.
func (k *Kernel) park() {
	p := k.current
	if p == nil {
		panic("vtime: blocking primitive called from outside a kernel process")
	}
	p.state = stateParked
	k.current = nil
	p.yield(struct{}{})
	p.resumed()
}

// resumed marks p as the token holder after a grant, and unwinds it if the
// grant came from Stop.
func (p *proc) resumed() {
	p.state = stateRunning
	p.k.current = p
	if p.killed {
		panic(killedPanic{})
	}
}

// wake moves a parked process to the run queue. It is a no-op for
// processes that are already runnable, running, or done, which lets
// multiple wake sources race benignly (e.g. a receive completing at the
// same instant as its timeout).
func (k *Kernel) wake(p *proc) {
	if p.state != stateParked {
		return
	}
	p.state = stateRunnable
	k.runq.push(p)
}

// YieldNow voluntarily reschedules the calling process behind everything
// currently runnable, without advancing time.
func (k *Kernel) YieldNow() {
	p := k.current
	if p == nil {
		panic("vtime: YieldNow outside a kernel process")
	}
	p.state = stateRunnable
	k.runq.push(p)
	k.current = nil
	p.yield(struct{}{})
	p.resumed()
}

// addTimer takes a pooled timer entry, stamps it with now+d and the next
// tie-break sequence, and pushes it on the heap.
func (k *Kernel) addTimer(d time.Duration) *timer {
	if d < 0 {
		d = 0
	}
	k.nextSeq++
	t, ok := k.freeTimers.Get()
	if !ok {
		t = &timer{}
	}
	k.timers = append(k.timers, slot{k.now.Add(d), k.nextSeq, t})
	k.timers.up(len(k.timers) - 1)
	return t
}

// releaseTimer recycles an entry that has left the heap. Bumping gen
// invalidates any outstanding cancel handle for the old use.
func (k *Kernel) releaseTimer(t *timer) {
	t.gen++
	t.wake = nil
	t.ev = nil
	k.freeTimers.Put(t)
}

// cancelTimer takes t out of the heap and recycles it, unless it already
// fired. gen is t.gen as read when the timer was added: a timer that fired
// while its owner was waking has been released, and may be in the heap
// again on someone else's behalf, so a mismatch means hands off.
func (k *Kernel) cancelTimer(t *timer, gen uint64) {
	if t.gen != gen {
		return
	}
	k.timers.remove(t.index)
	k.releaseTimer(t)
}

// AfterEvent schedules ev.Fire() to run at now+d on Run's
// goroutine, without allocating: the timer entry is pooled and ev is
// typically a caller-pooled object. Fire must not block.
func (k *Kernel) AfterEvent(d time.Duration, ev Event) {
	k.addTimer(d).ev = ev
}

// Sleep blocks the calling process for virtual duration d.
func (k *Kernel) Sleep(d time.Duration) {
	p := k.current
	if p == nil {
		panic("vtime: Sleep outside a kernel process")
	}
	k.addTimer(d).wake = p
	k.park()
}

// Run drives the scheduler until fn (executed as a new process) returns.
// Other live processes keep their state across Run calls: daemons parked
// on timers or channels simply stay parked, and resume when a later Run
// lets time advance again.
func (k *Kernel) Run(name string, fn func()) {
	if k.stopped {
		panic("vtime: Run on stopped kernel")
	}
	if k.running {
		panic("vtime: nested Run")
	}
	k.running = true
	defer func() { k.running = false }()

	done := false
	k.Go(name, func() { defer func() { done = true }(); fn() })
	for !done {
		if k.runq.len() > 0 {
			k.dispatch()
			continue
		}
		if !k.advance() {
			panic("vtime: deadlock — no runnable process and no pending timer\n" + k.dumpLive())
		}
	}
}

// dispatch grants the token to the head of the run queue and returns when
// the process hands it back.
func (k *Kernel) dispatch() {
	p := k.runq.pop()
	if p.state != stateRunnable {
		return // killed or already completed through another path
	}
	k.stats.Dispatches++
	p.next()
}

// advance pops the earliest timer, moves the clock, and fires it. It
// returns false when no timer is pending.
func (k *Kernel) advance() bool {
	if len(k.timers) == 0 {
		return false
	}
	s := k.timers.remove(0)
	t := s.t
	if s.when > k.now {
		k.now = s.when
	}
	k.stats.TimerFires++
	if t.wake != nil {
		k.wake(t.wake)
	} else {
		t.ev.Fire()
	}
	k.releaseTimer(t)
	return true
}

// Stop terminates every live process by unwinding it with an internal
// panic, ends the idle coroutines parked on the free list, then marks
// the kernel unusable. Call it when a simulation is finished so that
// process coroutines do not leak across tests.
func (k *Kernel) Stop() {
	if k.stopped {
		return
	}
	if k.running {
		panic("vtime: Stop during Run")
	}
	// Deterministic order: lowest id first. One sort per pass — a process
	// spawned while another unwinds has a higher id than every id in the
	// pass, so the next pass kills it in the same order a per-kill re-sort
	// would.
	for len(k.live) > 0 {
		for _, id := range k.liveIDs() {
			p, ok := k.live[id]
			if !ok {
				continue
			}
			p.killed = true
			p.next()
		}
	}
	// Unwound processes park on the free list; end their coroutines. An
	// idle coroutine's end runs no body, so the order is unobservable.
	for p, ok := k.freeProcs.Get(); ok; p, ok = k.freeProcs.Get() {
		p.stop()
	}
	k.freeTimers = FreeList[*timer]{}
	k.stopped = true
	k.runq = fifo[*proc]{}
	k.timers = nil
}

// liveIDs returns the ids of the live processes in ascending order.
func (k *Kernel) liveIDs() []int64 {
	ids := make([]int64, 0, len(k.live))
	for id := range k.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// dumpLive renders the parked-process table for deadlock diagnostics.
func (k *Kernel) dumpLive() string {
	ids := k.liveIDs()
	s := fmt.Sprintf("at t=%v, %d live processes:\n", k.now, len(ids))
	for _, id := range ids {
		p := k.live[id]
		s += fmt.Sprintf("  #%d %-30s state=%d\n", p.id, p.name, p.state)
	}
	return s
}

// FreeList is a LIFO list of values kept for reuse. Get clears the slot
// it pops, so a value taken off the list and then dropped is not kept
// alive by the list's array. Put keeps at most Max values; a zero Max
// keeps every value, as many as were ever out at once. A FreeList has
// no lock: its callers are kernel processes (or run between Run calls),
// and only one of those runs at a time.
type FreeList[T any] struct {
	Max  int
	vals []T
}

// Get pops the newest value, reporting false if the list is empty.
func (l *FreeList[T]) Get() (v T, ok bool) {
	n := len(l.vals)
	if n == 0 {
		return v, false
	}
	v = l.vals[n-1]
	l.vals[n-1] = *new(T)
	l.vals = l.vals[:n-1]
	return v, true
}

// Put keeps v for reuse, unless the list already holds Max values.
func (l *FreeList[T]) Put(v T) {
	if l.Max == 0 || len(l.vals) < l.Max {
		l.vals = append(l.vals, v)
	}
}

// Len returns the number of values the list holds.
func (l *FreeList[T]) Len() int { return len(l.vals) }

// fifo is an allocation-amortized FIFO queue: a slice with a head index
// that resets to the array start whenever the queue drains, so
// steady-state push/pop traffic reuses one backing array instead of
// leaking capacity off the front.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Compact the dead prefix instead of letting append copy it into
		// a bigger array: a queue that never fully drains must cost
		// O(depth) memory, not O(total throughput).
		live := copy(q.buf, q.buf[q.head:])
		var zero T
		for i := live; i < len(q.buf); i++ {
			q.buf[i] = zero
		}
		q.buf = q.buf[:live]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference for GC
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// each calls fn for every queued element in FIFO order.
func (q *fifo[T]) each(fn func(T)) {
	for i := q.head; i < len(q.buf); i++ {
		fn(q.buf[i])
	}
}

// remove deletes the first element for which match returns true,
// preserving order, and reports whether one was found.
func (q *fifo[T]) remove(match func(T) bool) bool {
	for i := q.head; i < len(q.buf); i++ {
		if match(q.buf[i]) {
			copy(q.buf[i:], q.buf[i+1:])
			var zero T
			q.buf[len(q.buf)-1] = zero
			q.buf = q.buf[:len(q.buf)-1]
			if q.head == len(q.buf) {
				q.buf = q.buf[:0]
				q.head = 0
			}
			return true
		}
	}
	return false
}

// reset empties the queue.
func (q *fifo[T]) reset() {
	for i := q.head; i < len(q.buf); i++ {
		var zero T
		q.buf[i] = zero
	}
	q.buf = q.buf[:0]
	q.head = 0
}
