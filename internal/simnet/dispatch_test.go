package simnet

import (
	"testing"
	"time"

	"cloudburst/internal/vtime"
)

type dtReq struct{ X int }
type dtMsg struct{ S string }
type dtOther struct{}

func TestDispatcherRoutesTypedHandlers(t *testing.T) {
	k := vtime.NewKernel(1)
	defer k.Stop()
	n := New(k, Link{Latency: Constant(time.Millisecond)})
	a := n.AddNode("a")
	b := n.AddNode("b")

	var msgs []string
	d := NewDispatcher(b, "b")
	OnRequest(d, func(req *Request, body dtReq) { req.Reply(body.X*2, 8) })
	OnMessage(d, func(m Message, body dtMsg) {
		if m.From != "a" {
			t.Errorf("From = %q", m.From)
		}
		msgs = append(msgs, body.S)
	})
	d.Start()

	k.Run("main", func() {
		a.Send("b", dtMsg{S: "one"}, 8)
		a.Send("b", dtOther{}, 8) // no handler: dropped
		out, err := a.Call("b", dtReq{X: 21}, 8, 0)
		if err != nil || out.(int) != 42 {
			t.Fatalf("call = %v, %v", out, err)
		}
	})
	if len(msgs) != 1 || msgs[0] != "one" {
		t.Fatalf("msgs = %v", msgs)
	}
}

func TestDispatcherSerialHandlersQueue(t *testing.T) {
	// Two RPCs against a serial dispatcher whose handler sleeps 10ms:
	// the second reply must wait for the first handler (service-time
	// queueing), finishing at ~latency + 2×service + latency.
	k := vtime.NewKernel(1)
	defer k.Stop()
	n := New(k, Link{Latency: Constant(time.Millisecond)})
	a := n.AddNode("a")
	b := n.AddNode("b")
	srv := n.AddNode("srv")
	d := NewDispatcher(srv, "srv")
	OnRequest(d, func(req *Request, body dtReq) {
		k.Sleep(10 * time.Millisecond)
		req.Reply(body.X, 8)
	})
	d.Start()

	var doneA, doneB vtime.Time
	k.Run("main", func() {
		wg := vtime.NewWaitGroup(k)
		wg.Add(2)
		k.Go("ca", func() { a.Call("srv", dtReq{X: 1}, 8, 0); doneA = k.Now(); wg.Done() })
		k.Go("cb", func() { b.Call("srv", dtReq{X: 2}, 8, 0); doneB = k.Now(); wg.Done() })
		wg.Wait()
	})
	first, second := doneA, doneB
	if second < first {
		first, second = second, first
	}
	if first != vtime.Time(12*time.Millisecond) || second != vtime.Time(22*time.Millisecond) {
		t.Fatalf("serial handlers did not queue: %v, %v", doneA, doneB)
	}
}

func TestDispatcherConcurrentHandlersOverlap(t *testing.T) {
	k := vtime.NewKernel(1)
	defer k.Stop()
	n := New(k, Link{Latency: Constant(time.Millisecond)})
	a := n.AddNode("a")
	b := n.AddNode("b")
	srv := n.AddNode("srv")
	d := NewDispatcher(srv, "srv").Concurrent()
	OnRequest(d, func(req *Request, body dtReq) {
		k.Sleep(10 * time.Millisecond)
		req.Reply(body.X, 8)
	})
	d.Start()

	var doneA, doneB vtime.Time
	k.Run("main", func() {
		wg := vtime.NewWaitGroup(k)
		wg.Add(2)
		k.Go("ca", func() { a.Call("srv", dtReq{X: 1}, 8, 0); doneA = k.Now(); wg.Done() })
		k.Go("cb", func() { b.Call("srv", dtReq{X: 2}, 8, 0); doneB = k.Now(); wg.Done() })
		wg.Wait()
	})
	want := vtime.Time(12 * time.Millisecond)
	if doneA != want || doneB != want {
		t.Fatalf("concurrent handlers serialized: %v, %v", doneA, doneB)
	}
}

func TestDispatcherStopHaltsServeAndDaemons(t *testing.T) {
	k := vtime.NewKernel(1)
	defer k.Stop()
	n := New(k, Link{Latency: Constant(time.Millisecond)})
	a := n.AddNode("a")
	b := n.AddNode("b")

	handled, ticks := 0, 0
	d := NewDispatcher(b, "b")
	OnMessage(d, func(m Message, body dtMsg) { handled++ })
	d.Every("tick", 5*time.Millisecond, func() { ticks++ })
	d.Start()

	k.Run("main", func() {
		a.Send("b", dtMsg{S: "x"}, 8)
		k.Sleep(12 * time.Millisecond) // 2 ticks land
		d.Stop()
		a.Send("b", dtMsg{S: "y"}, 8) // consumed by the exiting loop, not handled
		k.Sleep(20 * time.Millisecond)
	})
	if handled != 1 {
		t.Fatalf("handled = %d, want 1 (post-Stop message must not dispatch)", handled)
	}
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2 (daemon must stop with dispatcher)", ticks)
	}
}

func TestDispatcherInjectRunsBeforeInbox(t *testing.T) {
	k := vtime.NewKernel(1)
	defer k.Stop()
	n := New(k, Link{Latency: Constant(time.Millisecond)})
	a := n.AddNode("a")
	b := n.AddNode("b")

	var order []string
	d := NewDispatcher(b, "b")
	OnMessage(d, func(m Message, body dtMsg) { order = append(order, body.S) })
	d.Inject(Message{From: "self", Payload: dtMsg{S: "injected"}})
	d.Start()

	k.Run("main", func() {
		a.Send("b", dtMsg{S: "network"}, 8)
		k.Sleep(5 * time.Millisecond)
	})
	if len(order) != 2 || order[0] != "injected" || order[1] != "network" {
		t.Fatalf("order = %v", order)
	}
}
