package cloudburst

import (
	"fmt"
	"time"

	"cloudburst/internal/vtime"
)

// Future is the handle to an in-flight invocation (CloudburstFuture in
// Figure 2). Futures are push-based: executors deliver core.Result
// messages to the issuing client's endpoint, which demultiplexes them
// onto futures by request ID — no KVS polling unless the invocation
// asked for WithStoreInKVS, in which case the future resolves by
// reading Key once the completion notice arrives.
//
// A Future must be used from the goroutine that owns its Client.
type Future struct {
	cl    *Client
	reqID string
	// Key is the KVS key the result is persisted under when the
	// invocation was made with WithStoreInKVS; any client can Get it.
	Key string

	store    bool
	timeout  time.Duration // 0 → the client's Timeout at wait time
	notified bool          // completion notice arrived; value readable under Key
	done     bool
	val      any
	err      error
	hops     int

	// resend carries the original wire request so Wait can re-route it
	// to another scheduler shard after a deadline miss: a request routed
	// to a shard killed pre-ack is tracked by no scheduler, so nothing
	// §4.5 does recovers it — only the client can (§3.2's load-balancer
	// failover). rerouted caps the remnant at one re-route per request.
	resend     any
	resendSize int
	rerouted   bool
}

// complete resolves the future and stops tracking it; later duplicate
// results find no pending entry and are dropped.
func (f *Future) complete(v any, err error) {
	f.val, f.err, f.done = v, err, true
	delete(f.cl.pending, f.reqID)
}

// fail resolves the future with an error.
func (f *Future) fail(err error) { f.complete(nil, err) }

func (f *Future) waitTimeout() time.Duration {
	if f.timeout > 0 {
		return f.timeout
	}
	return f.cl.Timeout
}

func (f *Future) timeoutErr() error {
	return fmt.Errorf("%w (request %s)", ErrTimedOut, f.reqID)
}

// Wait blocks (in virtual time) until the future completes and returns
// its value. On timeout the future stays pending: the result can still
// arrive, and a later Wait picks it up.
func (f *Future) Wait() (any, error) {
	cl := f.cl
	budget := f.waitTimeout()
	deadline := cl.k.Now().Add(budget)
	// With a sharded scheduler group, a silent request is re-routed to
	// the next-ranked shard at half budget (once per request): the
	// primary shard may have died before acking, in which case no
	// scheduler tracks the request and only the client can recover it.
	// Single-scheduler clusters never arm this, keeping their schedules
	// byte-identical.
	rerouteArmed := f.resend != nil && !f.rerouted && cl.c.in.SchedulerCount() > 1
	var rerouteAt vtime.Time
	if rerouteArmed {
		rerouteAt = cl.k.Now().Add(budget / 2)
	}
	for {
		cl.drain()
		if f.done {
			return f.val, f.err
		}
		// Deadline check before any further blocking, so a future whose
		// timeout already expired fails immediately instead of paying
		// one more poll cycle.
		remaining := deadline.Sub(cl.k.Now())
		if remaining <= 0 {
			return nil, f.timeoutErr()
		}
		if rerouteArmed && !f.notified && rerouteAt.Sub(cl.k.Now()) <= 0 {
			cl.spans.Reissue(f.reqID, cl.k.Now())
			cl.ep.Send(cl.c.in.RouteScheduler(f.reqID, 1), f.resend, f.resendSize)
			f.rerouted = true
			rerouteArmed = false
		}
		if f.store && f.notified {
			// The result was persisted rather than carried inline; the
			// cache's write-back to Anna is asynchronous, so poll the
			// key until it lands. Read errors are returned without
			// resolving the future: a storage node can be transiently
			// unreachable, and a later Wait must be able to succeed.
			v, found, err := cl.Get(f.Key)
			if err != nil {
				return nil, err
			}
			if found {
				f.complete(v, nil)
				return f.val, f.err
			}
			if remaining = deadline.Sub(cl.k.Now()); remaining <= 0 {
				return nil, f.timeoutErr()
			}
			d := 2 * time.Millisecond
			if remaining < d {
				d = remaining
			}
			cl.k.Sleep(d)
			continue
		}
		wait := remaining
		if rerouteArmed {
			// Wake at the re-route instant even if no message arrives.
			if d := rerouteAt.Sub(cl.k.Now()); d < wait {
				wait = d
			}
		}
		if m, ok := cl.ep.RecvTimeout(wait); ok {
			cl.demux(m)
		}
	}
}

// Hops reports the executor-transition count of the completed
// invocation (0 until completion; request it with WithHopCount).
func (f *Future) Hops() int { return f.hops }

// All waits for every future (fan-in) and returns their values in
// argument order. All futures are waited on even when one fails — a
// failing member does not strand its siblings' results — and the first
// error encountered is returned.
func All(futs ...*Future) ([]any, error) {
	out := make([]any, len(futs))
	var first error
	for i, f := range futs {
		v, err := f.Wait()
		if err != nil && first == nil {
			first = err
		}
		out[i] = v
	}
	return out, first
}

// As waits for the future and returns its value as T — the typed
// decode path:
//
//	n, err := cloudburst.As[int](cl.Invoke("square", []any{7}))
func As[T any](f *Future) (T, error) {
	var zero T
	v, err := f.Wait()
	if err != nil {
		return zero, err
	}
	if v == nil {
		return zero, nil
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("cloudburst: result is %T, not %T", v, zero)
	}
	return t, nil
}
