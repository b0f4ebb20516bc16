package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

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
	// High-variance latency would reorder without the receiver's NIC queue.
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

// TestDeliveredLatencyMatchesLogNormal holds the delivery path to the
// link's latency model in closed form: zero-size messages, each sent
// after the previous one arrived (so the NIC queue adds no time), must fly with the LogNormal's quantiles, the median
// at Med and the 99th percentile at Med·exp(2.326σ), each within 2%.
func TestDeliveredLatencyMatchesLogNormal(t *testing.T) {
	const n = 20_000
	ln := LogNormal{Med: 200 * time.Microsecond, Sigma: 0.25}
	k, net := testNet(t, Link{Latency: ln})
	a := net.AddNode("a")
	b := net.AddNode("b")
	flights := make([]time.Duration, 0, n)
	k.Run("main", func() {
		for range n {
			a.Send("b", nil, 0)
			m := b.Recv()
			flights = append(flights, time.Duration(m.ArrivedAt-m.SentAt))
		}
	})
	slices.Sort(flights)
	for _, q := range []struct {
		name string
		p    float64
		want float64
	}{
		{"p50", 0.50, float64(ln.Med)},
		{"p99", 0.99, float64(ln.Med) * math.Exp(2.326*ln.Sigma)},
	} {
		got := float64(flights[int(q.p*n)])
		if dev := got/q.want - 1; math.Abs(dev) > 0.02 {
			t.Errorf("%s flight %v, want %v within 2%% (off %+.2f%%)",
				q.name, time.Duration(got), time.Duration(q.want), 100*dev)
		}
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

// TestTimedOutRequestIsCollectable: a Call that times out never recycles
// its Request, which it took off the free list from an answered call.
// Once the callee has dropped the request unanswered, nothing may keep it
// alive, nor the caller's body with it: the slot the request was taken
// from included.
func TestTimedOutRequestIsCollectable(t *testing.T) {
	k, n := testNet(t, Link{Latency: Constant(time.Millisecond)})
	a := n.AddNode("a")
	b := n.AddNode("b")
	var req weak.Pointer[Request]
	var body weak.Pointer[[1 << 20]byte]
	k.Run("main", func() {
		k.Go("b", func() {
			b.Recv().Payload.(*Request).Reply(nil, 8)
			req = weak.Make(b.Recv().Payload.(*Request)) // never answered
		})
		if _, err := a.Call("b", "ping", 8, 0); err != nil {
			t.Fatal(err)
		}
		big := new([1 << 20]byte)
		body = weak.Make(big)
		if _, err := a.Call("b", big, 8, 10*time.Millisecond); err != ErrTimeout {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	})
	runtime.GC()
	if req.Value() != nil || body.Value() != nil {
		t.Fatalf("after the timeout: request reachable %v, its 1 MiB body %v; want neither",
			req.Value() != nil, body.Value() != nil)
	}
	runtime.KeepAlive(n) // and with it the free list
}

// fifoTag names one message by its link and its place in the link's send
// order.
type fifoTag struct {
	link [2]NodeID
	seq  int
}

// TestPerLinkFIFOProperty holds delivery to per-link FIFO over seeded
// random schedules: four senders and two servers, over a LogNormal or a
// Spiky link, bandwidth on or off, sizes from 0 to 64 KiB, ExtraLatency
// and Jitter overlays on links and nodes that clear halfway, and RPC
// replies sharing the server-to-client links with datagrams. It compares
// arrivals on one link only: messages of different senders to one node
// may arrive in any order. A duplicated datagram's second copy may
// reorder (LinkPolicy), so a tag seen before is skipped; every other
// message must arrive exactly once, in its link's send order.
func TestPerLinkFIFOProperty(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var link Link
		link.Latency = LogNormal{Med: time.Duration(20+rng.Intn(300)) * time.Microsecond, Sigma: 0.3 + rng.Float64()}
		if rng.Intn(2) == 0 {
			link.Latency = Spiky{Base: link.Latency, P: 0.1, Factor: 30}
		}
		if rng.Intn(2) == 0 {
			link.Bandwidth = float64(1+rng.Intn(200)) * (1 << 20)
		}
		k := vtime.NewKernel(seed)
		n := New(k, link)
		servers := []NodeID{"srv-0", "srv-1"}
		clients := []NodeID{"cli-0", "cli-1", "cli-2", "cli-3"}
		eps := map[NodeID]*Endpoint{}
		for _, id := range slices.Concat(servers, clients) {
			eps[id] = n.AddNode(id)
		}
		overlay := func() LinkPolicy {
			return LinkPolicy{
				ExtraLatency: time.Duration(rng.Intn(3)) * time.Duration(rng.Intn(2000)) * time.Microsecond,
				Jitter:       time.Duration(rng.Intn(2000)) * time.Microsecond,
			}
		}
		for _, c := range clients {
			for _, s := range servers {
				if rng.Intn(3) == 0 {
					n.SetLinkPolicy(c, s, overlay())
				}
				if rng.Intn(3) == 0 {
					p := overlay()
					p.Duplicate = 0.2
					n.SetLinkPolicy(s, c, p)
				}
			}
		}
		n.SetNodePolicy(servers[rng.Intn(2)], overlay())
		size := func() int { return [...]int{0, 1, 100, 1500, 64 << 10}[rng.Intn(5)] }

		sent := map[[2]NodeID]int{}
		got := map[[2]NodeID][]int{}
		seen := map[fifoTag]bool{}
		record := func(tag fifoTag) {
			if !seen[tag] {
				seen[tag] = true
				got[tag.link] = append(got[tag.link], tag.seq)
			}
		}
		send := func(from, to NodeID) {
			l := [2]NodeID{from, to}
			eps[from].Send(to, fifoTag{l, sent[l]}, size())
			sent[l]++
		}
		for _, id := range slices.Concat(servers, clients) {
			k.Go("recv/"+string(id), func() {
				for {
					m := eps[id].Recv()
					req, ok := m.Payload.(*Request)
					if !ok {
						record(m.Payload.(fifoTag))
						continue
					}
					// Answer after a random service time, so replies
					// leave in another order than their requests came.
					k.Go("serve", func() {
						k.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
						if rng.Intn(2) == 0 {
							send(req.To, req.From)
						}
						l := [2]NodeID{req.To, req.From}
						req.Reply(fifoTag{l, sent[l]}, size())
						sent[l]++
					})
				}
			})
		}
		k.Run("main", func() {
			wg := vtime.NewWaitGroup(k)
			for _, c := range clients {
				for w := range 3 {
					wg.Add(1)
					k.Go(fmt.Sprintf("%s/%d", c, w), func() {
						defer wg.Done()
						for range 40 {
							k.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
							to := servers[rng.Intn(2)]
							if rng.Intn(2) == 0 {
								send(c, to)
								continue
							}
							resp, err := eps[c].Call(to, nil, size(), 0)
							if err != nil {
								t.Error(err)
								return
							}
							record(resp.(fifoTag))
						}
					})
				}
			}
			k.Sleep(20 * time.Millisecond)
			clear(n.linkPolicies)
			clear(n.nodePolicies)
			wg.Wait()
			k.Sleep(time.Second) // every datagram lands
		})
		k.Stop()
		for l, want := range sent {
			if seqs := got[l]; !slices.Equal(seqs, firstN(want)) {
				t.Fatalf("seed %d: %s→%s delivered %v of %d sends, want each once in send order",
					seed, l[0], l[1], seqs, want)
			}
		}
	}
}

// firstN returns 0, 1, ..., n-1.
func firstN(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestReceiverNICIsMD1 holds the receiver queue to its closed form. One
// sender sends fixed-size messages at Poisson times over a Constant link,
// so messages reach the NIC in send order and each occupies it for one
// transfer time S: an M/D/1 queue, whose mean wait is ρS/(2(1−ρ)). The
// wait is what the arrival holds beyond latency and transfer. Over twelve
// seeds at 200,000 messages the estimate's spread about the closed form
// was 0.9% (at most 1.8%) at ρ = 0.5 and 2.8% (at most 6.6%) at ρ = 0.9,
// so the bands are 4% and 10%, about four standard deviations.
func TestReceiverNICIsMD1(t *testing.T) {
	const (
		msgs    = 200_000
		size    = 10_000
		latency = 100 * time.Microsecond
	)
	for _, c := range []struct {
		rho, band float64
	}{{0.5, 0.04}, {0.9, 0.10}} {
		k, n := testNet(t, Link{Latency: Constant(latency), Bandwidth: 1e9})
		a := n.AddNode("a")
		b := n.AddNode("b")
		service := n.link.transfer(size)
		gap := float64(service) / c.rho
		var waited time.Duration
		k.Run("main", func() {
			k.Go("sender", func() {
				rng := rand.New(rand.NewSource(1))
				for range msgs {
					k.Sleep(time.Duration(rng.ExpFloat64() * gap))
					a.Send("b", nil, size)
				}
			})
			for range msgs {
				m := b.Recv()
				waited += time.Duration(m.ArrivedAt-m.SentAt) - latency - service
			}
		})
		got := float64(waited) / msgs
		want := c.rho * float64(service) / (2 * (1 - c.rho))
		if dev := got/want - 1; math.Abs(dev) > c.band {
			t.Errorf("ρ = %.1f: mean NIC wait %v, want %v within %.0f%% (off %+.1f%%)",
				c.rho, time.Duration(got), time.Duration(want), 100*c.band, 100*dev)
		}
	}
}
