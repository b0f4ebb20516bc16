package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cloudburst/internal/vtime"
)

func testNet(t *testing.T, link Link) (*vtime.Kernel, *Network) {
	t.Helper()
	k := vtime.NewKernel(7)
	t.Cleanup(k.Stop)
	return k, New(k, link)
}

func TestSendDeliversAfterLatency(t *testing.T) {
	k, n := testNet(t, Link{Latency: Constant(250 * time.Microsecond)})
	a := n.AddNode("a")
	b := n.AddNode("b")
	k.Run("main", func() {
		a.Send("b", "hi", 100)
		m := b.Recv()
		if m.Payload != "hi" || m.From != "a" {
			t.Errorf("got %+v", m)
		}
		if k.Now() != vtime.Time(250*time.Microsecond) {
			t.Errorf("delivered at %v", k.Now())
		}
	})
}

func TestBandwidthAddsTransferTime(t *testing.T) {
	// 1 MB at 1 MB/s = 1s on top of 1ms latency.
	k, n := testNet(t, Link{Latency: Constant(time.Millisecond), Bandwidth: 1 << 20})
	a := n.AddNode("a")
	b := n.AddNode("b")
	k.Run("main", func() {
		a.Send("b", "blob", 1<<20)
		b.Recv()
		want := vtime.Time(time.Second + time.Millisecond)
		if k.Now() != want {
			t.Errorf("delivered at %v, want %v", k.Now(), want)
		}
	})
}

func TestPerLinkFIFOPreventsReordering(t *testing.T) {
	// High-variance latency would reorder without the FIFO clamp.
	k, n := testNet(t, Link{Latency: LogNormal{Med: 2 * time.Millisecond, Sigma: 1}})
	a := n.AddNode("a")
	b := n.AddNode("b")
	k.Run("main", func() {
		for i := 0; i < 50; i++ {
			a.Send("b", i, 10)
		}
		for i := 0; i < 50; i++ {
			m := b.Recv()
			if m.Payload.(int) != i {
				t.Fatalf("message %d arrived out of order: got %v", i, m.Payload)
			}
		}
	})
}

func TestLinkOverride(t *testing.T) {
	k, n := testNet(t, Link{Latency: Constant(time.Millisecond)})
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.SetLink("a", "b", Link{Latency: Constant(30 * time.Millisecond)})
	k.Run("main", func() {
		a.Send("b", 1, 0)
		b.Recv()
		if k.Now() != vtime.Time(30*time.Millisecond) {
			t.Errorf("override not applied, t=%v", k.Now())
		}
	})
}

func TestDownNodeDropsAndRPCTimesOut(t *testing.T) {
	k, n := testNet(t, Link{Latency: Constant(time.Millisecond)})
	a := n.AddNode("a")
	n.AddNode("b")
	n.SetDown("b", true)
	k.Run("main", func() {
		_, err := a.Call("b", "ping", 8, 50*time.Millisecond)
		if err != ErrTimeout {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		if k.Now() != vtime.Time(50*time.Millisecond) {
			t.Errorf("timed out at %v", k.Now())
		}
	})
	if n.MessagesDropt == 0 {
		t.Error("drop counter not incremented")
	}
}

func TestRPCRoundTrip(t *testing.T) {
	k, n := testNet(t, Link{Latency: Constant(2 * time.Millisecond)})
	a := n.AddNode("client")
	b := n.AddNode("server")
	k.Run("main", func() {
		k.Go("server", func() {
			b.Serve(func(req *Request) (any, int) {
				return req.Body.(int) * 2, 8
			})
		})
		resp, err := a.Call("server", 21, 8, 0)
		if err != nil || resp.(int) != 42 {
			t.Errorf("resp=%v err=%v", resp, err)
		}
		if k.Now() != vtime.Time(4*time.Millisecond) {
			t.Errorf("round trip took %v, want 4ms", k.Now())
		}
	})
}

func TestRecvTimeoutAndTryRecv(t *testing.T) {
	k, n := testNet(t, Link{Latency: Constant(time.Millisecond)})
	a := n.AddNode("a")
	b := n.AddNode("b")
	k.Run("main", func() {
		if _, ok := b.TryRecv(); ok {
			t.Error("TryRecv on empty inbox succeeded")
		}
		if _, ok := b.RecvTimeout(500 * time.Microsecond); ok {
			t.Error("RecvTimeout should have timed out")
		}
		a.Send("b", "x", 1)
		if m, ok := b.RecvTimeout(10 * time.Millisecond); !ok || m.Payload != "x" {
			t.Errorf("RecvTimeout = %v %v", m, ok)
		}
	})
}

func TestDuplicateNodePanics(t *testing.T) {
	_, n := testNet(t, Link{Latency: Constant(0)})
	n.AddNode("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node")
		}
	}()
	n.AddNode("x")
}

func TestLatencyModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if d := (Constant(5 * time.Millisecond)).Sample(rng); d != 5*time.Millisecond {
		t.Errorf("Constant = %v", d)
	}
	ln := LogNormal{Med: 10 * time.Millisecond, Sigma: 0.3}
	var below int
	for i := 0; i < 2000; i++ {
		if ln.Sample(rng) < ln.Med {
			below++
		}
	}
	if below < 850 || below > 1150 {
		t.Errorf("LogNormal median off: %d/2000 below", below)
	}
	sp := Spiky{Base: Constant(time.Millisecond), P: 1.0, Factor: 10}
	if sp.Sample(rng) != 10*time.Millisecond {
		t.Error("Spiky with P=1 did not spike")
	}
	sp.P = 0
	if sp.Sample(rng) != time.Millisecond {
		t.Error("Spiky with P=0 spiked")
	}
}

func TestLinkPolicyDropIsAsymmetric(t *testing.T) {
	k, n := testNet(t, Link{Latency: Constant(time.Millisecond)})
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.SetLinkPolicy("a", "b", LinkPolicy{Drop: 1})
	k.Run("main", func() {
		a.Send("b", "lost", 8)
		if _, ok := b.RecvTimeout(20 * time.Millisecond); ok {
			t.Fatal("a->b delivered through a full-drop link policy")
		}
		// The reverse direction is untouched.
		b.Send("a", "back", 8)
		if m, ok := a.RecvTimeout(20 * time.Millisecond); !ok || m.Payload != "back" {
			t.Fatalf("b->a = %v %v", m, ok)
		}
		// Clearing the policy heals the link.
		n.ClearLinkPolicy("a", "b")
		a.Send("b", "healed", 8)
		if m, ok := b.RecvTimeout(20 * time.Millisecond); !ok || m.Payload != "healed" {
			t.Fatalf("after heal = %v %v", m, ok)
		}
	})
	if n.MessagesDropt != 1 {
		t.Fatalf("drops = %d", n.MessagesDropt)
	}
}

func TestLinkPolicyAddsLatencyAndJitter(t *testing.T) {
	k, n := testNet(t, Link{Latency: Constant(time.Millisecond)})
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.SetLinkPolicy("a", "b", LinkPolicy{ExtraLatency: 40 * time.Millisecond, Jitter: 5 * time.Millisecond})
	k.Run("main", func() {
		a.Send("b", 1, 8)
		b.Recv()
		at := k.Now()
		if at < vtime.Time(41*time.Millisecond) || at > vtime.Time(46*time.Millisecond) {
			t.Fatalf("delivered at %v, want 41ms..46ms", at)
		}
	})
}

func TestLinkPolicyDuplicatesDatagramsNotRPCs(t *testing.T) {
	k, n := testNet(t, Link{Latency: Constant(time.Millisecond)})
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.SetLinkPolicy("a", "b", LinkPolicy{Duplicate: 1})
	n.SetLinkPolicy("b", "a", LinkPolicy{Duplicate: 1})
	k.Run("main", func() {
		a.Send("b", "dup", 8)
		first := b.Recv()
		second, ok := b.RecvTimeout(20 * time.Millisecond)
		if !ok || first.Payload != "dup" || second.Payload != "dup" {
			t.Fatalf("duplication missing: %v / %v %v", first.Payload, second.Payload, ok)
		}
		// RPC traffic must stay at-most-once: the pooled request record
		// would otherwise Reply twice (panic) or poison a recycled reply
		// channel.
		k.Go("server", func() {
			b.Serve(func(req *Request) (any, int) { return req.Body.(int) + 1, 8 })
		})
		for i := 0; i < 20; i++ {
			resp, err := a.Call("b", i, 8, time.Second)
			if err != nil || resp.(int) != i+1 {
				t.Fatalf("rpc %d under duplication: %v %v", i, resp, err)
			}
		}
	})
	if n.MessagesDuped != 1 {
		t.Fatalf("duped = %d, want 1 (datagram only)", n.MessagesDuped)
	}
}

func TestNodePolicyCombinesWithSetDown(t *testing.T) {
	k, n := testNet(t, Link{Latency: Constant(time.Millisecond)})
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.SetDown("b", true)
	if !n.Down("b") {
		t.Fatal("SetDown did not install a full-drop node policy")
	}
	k.Run("main", func() {
		a.Send("b", 1, 8)
		if _, ok := b.RecvTimeout(20 * time.Millisecond); ok {
			t.Fatal("down node received")
		}
		n.SetDown("b", false)
		if n.Down("b") {
			t.Fatal("SetDown(false) left the policy installed")
		}
		a.Send("b", 2, 8)
		if m, ok := b.RecvTimeout(20 * time.Millisecond); !ok || m.Payload != 2 {
			t.Fatalf("after revive = %v %v", m, ok)
		}
	})
}

func TestFullDownDropsInFlightAtArrival(t *testing.T) {
	// Messages already in flight when the receiver goes fully down are
	// lost on arrival — the crash takes the receive queue with it.
	k, n := testNet(t, Link{Latency: Constant(10 * time.Millisecond)})
	a := n.AddNode("a")
	b := n.AddNode("b")
	k.Run("main", func() {
		a.Send("b", "doomed", 8)
		k.Sleep(time.Millisecond)
		n.SetDown("b", true)
		if _, ok := b.RecvTimeout(50 * time.Millisecond); ok {
			t.Fatal("in-flight message survived a full-down receiver")
		}
	})
}

func TestNetworkStats(t *testing.T) {
	k, n := testNet(t, Link{Latency: Constant(time.Millisecond)})
	a := n.AddNode("a")
	b := n.AddNode("b")
	k.Run("main", func() {
		a.Send("b", 1, 100)
		a.Send("b", 2, 200)
		b.Recv()
		b.Recv()
	})
	if n.MessagesSent != 2 || n.BytesSent != 300 {
		t.Errorf("stats: msgs=%d bytes=%d", n.MessagesSent, n.BytesSent)
	}
}

func TestReceiverNICSerializesParallelTransfers(t *testing.T) {
	// Ten 1MB payloads from ten different senders to one receiver must
	// queue at the receiver's NIC: total time ≈ 10 × transfer, not 1 ×.
	k, n := testNet(t, Link{Latency: Constant(time.Millisecond), Bandwidth: 1 << 20})
	dst := n.AddNode("sink")
	for i := 0; i < 10; i++ {
		src := n.AddNode(NodeID(fmt.Sprintf("src-%d", i)))
		src.Send("sink", i, 1<<20)
	}
	k.Run("main", func() {
		for i := 0; i < 10; i++ {
			dst.Recv()
		}
		if k.Now() < vtime.Time(9*time.Second) {
			t.Fatalf("10 x 1MB at 1MB/s arrived in %v — NIC not shared", k.Now())
		}
	})
}

func TestSmallMessagesDoNotQueueAtNIC(t *testing.T) {
	k, n := testNet(t, Link{Latency: Constant(time.Millisecond), Bandwidth: 1 << 30})
	dst := n.AddNode("sink")
	for i := 0; i < 50; i++ {
		src := n.AddNode(NodeID(fmt.Sprintf("s-%d", i)))
		src.Send("sink", i, 64)
	}
	k.Run("main", func() {
		for i := 0; i < 50; i++ {
			dst.Recv()
		}
		if k.Now() > vtime.Time(2*time.Millisecond) {
			t.Fatalf("small messages serialized: %v", k.Now())
		}
	})
}
