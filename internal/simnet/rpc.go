package simnet

import (
	"errors"
	"time"

	"cloudburst/internal/vtime"
)

// ErrTimeout is returned by Call when no response arrives in time,
// typically because the callee node is down or overloaded.
var ErrTimeout = errors.New("simnet: rpc timeout")

// Request is an in-flight RPC as seen by the server. Servers receive it
// as the Payload of a Message and must call Reply exactly once (or drop
// it, in which case the caller times out). Request records and their
// reply channels are pooled: once the caller has observed the reply, the
// record is recycled for a future Call, so servers must not retain a
// *Request or call Reply on it twice.
type Request struct {
	From NodeID
	To   NodeID
	Body any

	net     *Network
	reply   *vtime.Chan[any]
	replied bool
}

// Reply sends resp back to the caller over the network (paying reverse
// latency, receiver-NIC contention, and bandwidth for size bytes).
func (r *Request) Reply(resp any, size int) {
	if r.replied {
		// A second Reply on a pooled request would otherwise land in a
		// recycled reply channel and hand a stale response to an
		// unrelated future Call; fail loudly instead.
		panic("simnet: duplicate Reply on request from " + string(r.From))
	}
	r.replied = true
	d := r.net.getDelivery()
	d.reply = r.reply
	d.resp = resp
	r.net.deliver(r.To, r.From, size, d)
}

// releaseRequest recycles a request whose reply has been consumed. Timed
// out requests are never recycled: a late reply may still land in their
// channel.
func (n *Network) releaseRequest(r *Request) {
	r.From, r.To, r.Body = "", "", nil
	r.replied = false
	n.freeReqs.Put(r)
}

// Call performs a synchronous RPC from this endpoint: it sends body to the
// destination and blocks until the response arrives or timeout elapses
// (timeout <= 0 means wait forever). size is the request's serialized
// size. A body may be a pointer that the receiver fills before its one
// Reply, the caller's reply space; after a timeout the receiver may
// still write it, so the caller must not reuse it.
func (e *Endpoint) Call(to NodeID, body any, size int, timeout time.Duration) (any, error) {
	req, ok := e.net.freeReqs.Get()
	if !ok {
		req = &Request{net: e.net, reply: vtime.NewChan[any](e.net.k, -1)}
	}
	req.From, req.To, req.Body = e.node.id, to, body
	e.net.Send(e.node.id, to, req, size)
	if timeout <= 0 {
		resp, _ := req.reply.Recv()
		e.net.releaseRequest(req)
		return resp, nil
	}
	resp, _, timedOut := req.reply.RecvTimeout(timeout)
	if timedOut {
		return nil, ErrTimeout
	}
	e.net.releaseRequest(req)
	return resp, nil
}

// Serve runs a minimal request loop on the endpoint: every inbound
// *Request is passed to handle, whose return value (and its size) is sent
// back; non-request messages are dropped. It is a convenience for tests
// and single-handler servers — real components register typed handlers
// with a Dispatcher instead.
func (e *Endpoint) Serve(handle func(req *Request) (resp any, size int)) {
	for {
		m := e.Recv()
		if req, ok := m.Payload.(*Request); ok {
			resp, size := handle(req)
			req.Reply(resp, size)
		}
	}
}
