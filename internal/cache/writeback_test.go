package cache

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
	"weak"

	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
	"cloudburst/internal/vtime"
)

// TestWriteBackRecordsBoundedAtQuiescence issues bursts of writes to
// distinct keys at once, so every put is in flight together, and drains
// each with FlushWrites: every write has reached Anna, no put is in
// flight, every idle record has let go of its item, and the free list
// holds one record per put of the burst, at most wbFreeMax. The second
// burst reuses the first's records and is larger than the bound.
func TestWriteBackRecordsBoundedAtQuiescence(t *testing.T) {
	r := newRig(t, core.LWW)
	r.k.Run("main", func() {
		for round, n := range []int{8, wbFreeMax + 16} {
			wg := vtime.NewWaitGroup(r.k)
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("k%d-%d", round, i)
				wg.Add(1)
				r.k.Go(key, func() {
					defer wg.Done()
					if _, err := r.a.Write("req", key, []byte(key), nil, "w"); err != nil {
						t.Error(err)
					}
				})
			}
			wg.Wait()
			r.a.FlushWrites()
			if r.a.wbPending != 0 || r.a.wbq.Len() != 0 {
				t.Fatalf("burst of %d: %d puts in flight and %d queued after FlushWrites", n, r.a.wbPending, r.a.wbq.Len())
			}
			if got, want := r.a.freeWB.Len(), min(n, wbFreeMax); got != want {
				t.Errorf("burst of %d: %d idle write-back records, want %d", n, got, want)
			}
			for _, p := range listed(&r.a.freeWB) {
				if p.item != (wbItem{}) || p.c != r.a {
					t.Fatalf("burst of %d: an idle record holds %q, %v", n, p.item.key, p.item.lat)
				}
			}
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("k%d-%d", round, i)
				if lat, found, err := r.client.Get(key); err != nil || !found || string(lat.(*lattice.LWW).Value) != key {
					t.Fatalf("burst of %d: Anna holds %s as %v, %v, %v after FlushWrites", n, key, lat, found, err)
				}
			}
		}
	})
}

// TestFinishedWriteBackIsCollectable: a put's record goes back to the
// free list without its item, so a written value that the cache and Anna
// have since let go of is not kept alive by the record that carried it.
func TestFinishedWriteBackIsCollectable(t *testing.T) {
	r := newRig(t, core.LWW)
	var body weak.Pointer[[1 << 16]byte]
	r.k.Run("main", func() {
		big := new([1 << 16]byte)
		body = weak.Make(big)
		if _, err := r.a.Write("req", "k", big[:], nil, "w"); err != nil {
			t.Fatal(err)
		}
		r.a.FlushWrites()
		if n := r.a.freeWB.Len(); n != 1 {
			t.Fatalf("%d idle write-back records after one write, want 1", n)
		}
		r.a.Evict("k")
		if err := r.client.Put("k", lattice.NewLWW(lattice.Timestamp{Clock: math.MaxInt64}, []byte("newer"))); err != nil {
			t.Fatal(err)
		}
		r.k.Sleep(2 * time.Second) // gossip carries the newer version to every replica
	})
	runtime.GC()
	if body.Value() != nil {
		t.Fatal("a superseded write's payload is still reachable after its write-back finished")
	}
}

// TestWriteBackSpawnAllocationFree pins what queueing a put costs beyond
// the put itself at 0: on a warm cache, a write-back through the queue
// allocates what the same Anna put issued directly does. Its record comes
// off the free list and runs as a vtime.Runner, so no closure or record
// is allocated per write.
func TestWriteBackSpawnAllocationFree(t *testing.T) {
	r := newRig(t, core.LWW)
	lat := lattice.NewLWW(lattice.Timestamp{Clock: 1}, []byte("v"))
	measure := func(put func()) float64 {
		calls := 0
		run := func() {
			r.k.Run("measure", func() {
				for i := 0; i < calls; i++ {
					put()
				}
			})
		}
		calls = 50
		run() // warm the pools, the kernel's processes and the records
		// The difference between 100 and 50 calls per Run is 50 calls'
		// cost, without what one Run and the idle ticks cost.
		base := testing.AllocsPerRun(5, run)
		calls = 100
		return (testing.AllocsPerRun(5, run) - base) / 50
	}
	direct := measure(func() {
		if err := r.a.anna.Put("k", lat); err != nil {
			t.Fatal(err)
		}
	})
	queued := measure(func() {
		r.a.writeBack("k", lat)
		r.a.FlushWrites()
	})
	t.Logf("direct put: %.2f allocations, queued: %.2f", direct, queued)
	if math.Round((queued-direct)*10)/10 > 0 {
		t.Errorf("a queued write-back allocates %.2f times more than its put, want 0", queued-direct)
	}
}
