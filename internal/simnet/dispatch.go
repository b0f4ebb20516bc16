package simnet

import (
	"reflect"
	"time"

	"cloudburst/internal/vtime"
)

// Dispatcher is the unified serve layer for server components: instead of
// hand-rolling a receive loop and a payload type-switch, a component
// registers typed handlers (OnRequest for RPC bodies, OnMessage for
// one-way datagrams) and calls Start. The dispatcher owns the endpoint's
// receive loop, routes each inbound payload to its handler, and replies
// to RPCs whose handler chose to.
//
// Serial vs concurrent: by default handlers run inline on the serve
// process, so a handler that sleeps (modeling service time) serializes
// the endpoint — the right shape for storage nodes, caches, and
// schedulers, where queueing delay under load is part of the model.
// Concurrent() instead runs every inbound payload in its own kernel
// process (reused from the kernel's free list), the right shape for
// services with unbounded front fleets. Handlers that must serialize
// partially (e.g. Redis's single master thread) combine Concurrent with
// their own semaphore.
//
// Periodic daemons (gossip, metrics publication, retry scans) register
// with Every and stop together with the dispatcher, so a component's
// whole process lifecycle hangs off one Stop call.
type Dispatcher struct {
	ep   *Endpoint
	k    *vtime.Kernel
	name string
	// handlerName is precomputed so concurrent dispatch does not build a
	// process-name string per request.
	handlerName string

	reqHandlers map[reflect.Type]func(*Request)
	msgHandlers map[reflect.Type]func(Message)

	concurrent bool
	stopped    bool

	// injected is the front queue: messages a component pulled off the
	// endpoint itself (e.g. while draining mid-invocation) and handed
	// back for ordinary dispatch. Drained before the endpoint inbox.
	injected    []Message
	injectedPos int

	// freeTasks recycles concurrent-dispatch units: each inbound payload
	// of a Concurrent dispatcher rides one dispatchTask onto a kernel
	// process instead of allocating a fresh closure.
	freeTasks vtime.FreeList[*dispatchTask]
}

// dispatchTask is one in-flight concurrent dispatch: the resolved
// handler plus its payload, run as a closure-free vtime.Runner. The
// task returns itself to the dispatcher's free list when the handler
// finishes, so the pool's size tracks peak handler concurrency.
type dispatchTask struct {
	d    *Dispatcher
	reqH func(*Request)
	req  *Request
	msgH func(Message)
	msg  Message
}

// Run implements vtime.Runner; it releases the payload references
// before invoking the handler so a long-blocking handler does not pin
// them.
func (t *dispatchTask) Run() {
	if t.reqH != nil {
		h, req := t.reqH, t.req
		t.reqH, t.req = nil, nil
		h(req)
	} else {
		h, m := t.msgH, t.msg
		t.msgH, t.msg = nil, Message{}
		h(m)
	}
	t.d.freeTasks.Put(t)
}

// getTask pops a pooled dispatch unit (or makes the pool's next one).
func (d *Dispatcher) getTask() *dispatchTask {
	if t, ok := d.freeTasks.Get(); ok {
		return t
	}
	return &dispatchTask{d: d}
}

// NewDispatcher creates a dispatcher for ep. name prefixes the kernel
// process names of the serve loop, handlers, and periodic daemons.
func NewDispatcher(ep *Endpoint, name string) *Dispatcher {
	return &Dispatcher{
		ep:          ep,
		k:           ep.net.k,
		name:        name,
		handlerName: name + "/handler",
		reqHandlers: make(map[reflect.Type]func(*Request)),
		msgHandlers: make(map[reflect.Type]func(Message)),
	}
}

// Concurrent makes every inbound payload run in its own kernel process
// instead of inline on the serve loop. Returns d for chaining.
func (d *Dispatcher) Concurrent() *Dispatcher {
	d.concurrent = true
	return d
}

// OnRequest registers the handler for RPC requests whose body has type T.
// The handler must call req.Reply (directly or transitively) exactly
// once; dropping the request times the caller out.
func OnRequest[T any](d *Dispatcher, h func(req *Request, body T)) {
	d.reqHandlers[reflect.TypeFor[T]()] = func(req *Request) { h(req, req.Body.(T)) }
}

// OnMessage registers the handler for one-way messages whose payload has
// type T.
func OnMessage[T any](d *Dispatcher, h func(m Message, body T)) {
	d.msgHandlers[reflect.TypeFor[T]()] = func(m Message) { h(m, m.Payload.(T)) }
}

// Start launches the serve loop as a kernel process.
func (d *Dispatcher) Start() { d.k.Go(d.name+"/serve", d.Serve) }

// Stop makes the serve loop exit after the message currently being
// waited on, and every Every daemon exit after its current tick.
func (d *Dispatcher) Stop() { d.stopped = true }

// Inject queues a message for ordinary dispatch ahead of the endpoint
// inbox — used by components that drain the endpoint themselves
// mid-handler and must defer what they cannot process inline.
func (d *Dispatcher) Inject(m Message) { d.injected = append(d.injected, m) }

// Serve runs the dispatch loop until Stop; it must run on a kernel
// process (Start does this). Exposed for components that need the loop
// on a process they already own.
func (d *Dispatcher) Serve() {
	for {
		var m Message
		if d.injectedPos < len(d.injected) {
			m = d.injected[d.injectedPos]
			d.injected[d.injectedPos] = Message{}
			d.injectedPos++
			if d.injectedPos == len(d.injected) {
				d.injected = d.injected[:0]
				d.injectedPos = 0
			}
		} else {
			m = d.ep.Recv()
		}
		if d.stopped {
			return
		}
		d.dispatch(m)
	}
}

// dispatch routes one message. Payloads with no registered handler are
// dropped, matching the tolerant type-switches the components used to
// write.
func (d *Dispatcher) dispatch(m Message) {
	if req, ok := m.Payload.(*Request); ok {
		h, ok := d.reqHandlers[reflect.TypeOf(req.Body)]
		if !ok {
			return
		}
		if d.concurrent {
			t := d.getTask()
			t.reqH, t.req = h, req
			d.k.GoRunner(d.handlerName, t)
			return
		}
		h(req)
		return
	}
	h, ok := d.msgHandlers[reflect.TypeOf(m.Payload)]
	if !ok {
		return
	}
	if d.concurrent {
		t := d.getTask()
		t.msgH, t.msg = h, m
		d.k.GoRunner(d.handlerName, t)
		return
	}
	h(m)
}

// Every runs fn every interval on its own kernel process until the
// dispatcher stops — the standard shape of a component's periodic
// daemons (gossip, key-set publication, view refresh, retry scans).
func (d *Dispatcher) Every(name string, interval time.Duration, fn func()) {
	d.k.Go(d.name+"/"+name, func() { d.RunEvery(interval, fn) })
}

// RunEvery is Every's loop body for callers that already own a kernel
// process (e.g. a daemon that must do setup work before its first tick):
// it blocks, running fn every interval, until the dispatcher stops.
func (d *Dispatcher) RunEvery(interval time.Duration, fn func()) {
	for {
		d.k.Sleep(interval)
		if d.stopped {
			return
		}
		fn()
	}
}

// Go launches fn as a kernel process named under this dispatcher — a
// companion process (queue drainer, warm-up task) that shares the
// component's naming but manages its own exit.
func (d *Dispatcher) Go(name string, fn func()) {
	d.k.Go(d.name+"/"+name, fn)
}
