package vtime

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestFixedScriptCounts pins the kernel's observable schedule: one script
// that crosses every way a process gives up and regains the token, with
// the wake order and the lifetime counters as literals. The literals were
// recorded on the channel-token kernel (commit 9ca41a3) before the
// coroutine kernel replaced it, so they are the tier-1 form of "dispatch
// order and every count are unchanged": a kernel change that adds, drops
// or reorders one dispatch fails here, not only in scripts/tablediff.sh.
func TestFixedScriptCounts(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", k.Now())+fmt.Sprintf(format, args...))
	}
	k.Run("main", func() {
		// Sleepers with equal and distinct wake times: 2ms, 1ms, 2ms, 3ms,
		// 1ms. Equal times wake in creation order.
		wg := NewWaitGroup(k)
		for i, ms := range []int{2, 1, 2, 3, 1} {
			wg.Add(1)
			k.Go("sleeper", func() {
				k.Sleep(time.Duration(ms) * time.Millisecond)
				note("sleeper%d", i)
				wg.Done()
			})
		}
		wg.Wait()

		// A ping-pong: no Send parks, and every Recv that finds no value
		// does.
		ping, pong := NewChan[int](k, -1), NewChan[int](k, -1)
		k.Go("ponger", func() {
			for {
				v, ok := ping.Recv()
				if !ok {
					return
				}
				pong.Send(v + 1)
			}
		})
		for i := 0; i < 3; i++ {
			ping.Send(10 * i)
			v, _ := pong.Recv()
			note("pong %d", v)
		}
		ping.Close()

		// A RecvTimeout whose value arrives before its deadline: the
		// cancelled timer never fires.
		reply := NewChan[int](k, -1)
		k.Go("replier", func() { k.Sleep(time.Millisecond); reply.Send(7) })
		v, _, timedOut := reply.RecvTimeout(time.Second)
		note("reply %d timedOut=%v", v, timedOut)

		// YieldNow: two processes alternate without the clock moving.
		wg.Add(2)
		for _, name := range []string{"a", "b"} {
			k.Go(name, func() {
				note("%s1", name)
				k.YieldNow()
				note("%s2", name)
				wg.Done()
			})
		}
		wg.Wait()

		// Spawn then reuse: each short worker finishes before the next
		// Go, which re-arms its parked process.
		for i := 0; i < 4; i++ {
			k.Go("worker", func() { note("worker%d", i) })
			k.Sleep(time.Millisecond)
		}

		// An Event fires on the scheduler, not in a process: a timer fire
		// without a dispatch of its own.
		var fired []int
		k.AfterEvent(2*time.Millisecond, &recordEvent{&fired, 1})
		k.Sleep(3 * time.Millisecond)
		note("event fired=%v", fired)
	})

	wantLog := []string{
		"1ms sleeper1", "1ms sleeper4", "2ms sleeper0", "2ms sleeper2", "3ms sleeper3",
		"3ms pong 1", "3ms pong 11", "3ms pong 21",
		"4ms reply 7 timedOut=false",
		"4ms a1", "4ms b1", "4ms a2", "4ms b2",
		"4ms worker0", "5ms worker1", "6ms worker2", "7ms worker3",
		"11ms event fired=[1]",
	}
	wantStats := Stats{Spawns: 6, Reuses: 8, Dispatches: 36, TimerFires: 12}
	if !slices.Equal(log, wantLog) {
		t.Errorf("wake order moved:\n got %q\nwant %q", log, wantLog)
	}
	if got := k.Stats(); got != wantStats {
		t.Errorf("Stats = %+v, want %+v", got, wantStats)
	}
}

// TestChanPingPongAllocationFree and TestGoWarmFreeListAllocationFree sit
// beside TestSleepAllocationFree: the two other ways a process crosses the
// scheduler must cost no allocation once the pools are warm.
func TestChanPingPongAllocationFree(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	ping, pong := NewChan[int](k, -1), NewChan[int](k, -1)
	k.Run("setup", func() {
		k.Go("ponger", func() {
			for {
				v, _ := ping.Recv()
				pong.Send(v)
			}
		})
	})
	const perRun = 100
	run := func() {
		k.Run("bench", func() {
			for i := 0; i < perRun; i++ {
				ping.Send(i)
				pong.Recv()
			}
		})
	}
	run() // warm pools
	// Run's own root closure is the only allocation in a round; it
	// amortizes to zero over the round trips.
	if allocs := testing.AllocsPerRun(5, run) / perRun; allocs > 0.2 {
		t.Fatalf("Chan ping-pong: %.3f allocs per round trip, want amortized 0", allocs)
	}
}

func TestGoWarmFreeListAllocationFree(t *testing.T) {
	k := NewKernel(1)
	defer k.Stop()
	ran := 0
	body := func() { ran++ }
	const perRun = 100
	run := func() {
		k.Run("bench", func() {
			for i := 0; i < perRun; i++ {
				k.Go("w", body)
				k.YieldNow() // let it finish and park before the next Go
			}
		})
	}
	run() // warm the free list
	spawns := k.Stats().Spawns
	if allocs := testing.AllocsPerRun(5, run) / perRun; allocs > 0.2 {
		t.Fatalf("Go on a warm free list: %.3f allocs/op, want amortized 0", allocs)
	}
	if got := k.Stats().Spawns; got != spawns {
		t.Fatalf("Spawns grew %d -> %d: the free list was not reused", spawns, got)
	}
}

// TestProcessPanicSurfacesOnRunCaller: a panic in a process body is
// re-raised on the goroutine that called Run (recover only works there),
// names the process, and leaves a kernel that Stop can still tear down to
// the goroutine baseline.
func TestProcessPanicSurfacesOnRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		k.Run("main", func() {
			k.Go("bystander", func() { k.Sleep(time.Hour) })
			k.Go("doomed", func() { k.Sleep(time.Millisecond); panic("boom") })
			k.Sleep(time.Second)
		})
	}()
	msg, _ := recovered.(string)
	if !strings.Contains(msg, `"doomed"`) || !strings.Contains(msg, "boom") {
		t.Fatalf("Run panicked with %q, want the process name and its panic value", recovered)
	}
	if got := k.Stats().LiveProcs; got != 2 {
		t.Fatalf("LiveProcs = %d after the panic, want 2 (main and the bystander)", got)
	}
	k.Stop() // must not wait on the dead coroutine
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond) // goroutine exit is asynchronous
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines after Stop = %d, want <= %d", got, before)
	}
}

// TestProcessGoexitEndsRunCaller: runtime.Goexit in a process body (what
// t.Fatalf does) ends the goroutine that called Run, running its deferred
// calls, instead of deadlocking the scheduler; Stop then returns.
func TestProcessGoexitEndsRunCaller(t *testing.T) {
	k := NewKernel(1)
	var deferredRan, runReturned bool
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		defer func() { deferredRan = true }()
		k.Run("main", func() {
			k.Go("quitter", func() { k.Sleep(time.Millisecond); runtime.Goexit() })
			k.Sleep(time.Second)
		})
		runReturned = true
	}()
	<-exited
	if !deferredRan || runReturned {
		t.Fatalf("deferredRan=%v runReturned=%v, want the caller's goroutine ended by Goexit", deferredRan, runReturned)
	}
	if got := k.Stats().LiveProcs; got != 1 {
		t.Fatalf("LiveProcs = %d after the Goexit, want 1 (main)", got)
	}
	k.Stop()
}
