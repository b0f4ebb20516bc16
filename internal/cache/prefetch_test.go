package cache

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
	"cloudburst/internal/vtime"
)

// threadsPerVM is the paper's executor-thread count per VM: how many
// prefetches one cache serves at once.
const threadsPerVM = 3

// coldKeys preloads n LWW keys with the given prefix into Anna, each
// holding its own name, and returns them.
func coldKeys(r *rig, prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%d", prefix, i)
		r.kv.Preload(keys[i], lattice.NewLWW(lattice.Timestamp{Clock: 1}, []byte(keys[i])))
	}
	return keys
}

// TestPrefetchedCapsulesAreCollectable: once Prefetch has returned and
// its keys are gone from the cache and from Anna, nothing keeps the
// capsules it fetched alive. The record it used is back on the free
// list, so its results must have been cleared on the way.
func TestPrefetchedCapsulesAreCollectable(t *testing.T) {
	r := newRig(t, core.LWW)
	var fetched []weak.Pointer[lattice.LWW]
	r.k.Run("main", func() {
		keys := make([]string, 10)
		for i := range keys {
			keys[i] = fmt.Sprintf("gc-%d", i)
			l := lattice.NewLWW(lattice.Timestamp{Clock: 1}, []byte(keys[i]))
			fetched = append(fetched, weak.Make(l))
			r.kv.Preload(keys[i], l)
		}
		r.a.Prefetch(keys)
		if r.a.Stats.PrefetchedKeys != int64(len(keys)) {
			t.Fatalf("prefetch installed %d keys, want %d", r.a.Stats.PrefetchedKeys, len(keys))
		}
		if len(r.a.freePrefetch) != 1 {
			t.Fatalf("%d free prefetch records, want 1", len(r.a.freePrefetch))
		}
		for _, key := range keys {
			r.a.Evict(key)
			if err := r.client.Delete(key); err != nil {
				t.Fatal(err)
			}
		}
		r.k.Sleep(time.Second) // the keyset publishes; nothing is in flight
	})
	runtime.GC()
	live := 0
	for _, p := range fetched {
		if p.Value() != nil {
			live++
		}
	}
	if live != 0 {
		t.Fatalf("%d of %d prefetched capsules are still reachable after eviction", live, len(fetched))
	}
}

// TestPrefetchRecordsBoundedAtQuiescence runs three rounds in which every
// thread of a VM prefetches its own cold read set at once, all blocked in
// the grouped read together. At quiescence the cache keeps one record per
// prefetch that ran at once, however many rounds ran, each emptied. A
// prefetch larger than prefetchKeep then leaves no oversized record.
func TestPrefetchRecordsBoundedAtQuiescence(t *testing.T) {
	r := newRig(t, core.LWW)
	r.k.Run("main", func() {
		for round := 0; round < 3; round++ {
			wg := vtime.NewWaitGroup(r.k)
			for th := 0; th < threadsPerVM; th++ {
				keys := coldKeys(r, fmt.Sprintf("r%d-t%d", round, th), 10)
				wg.Add(1)
				r.k.Go(keys[0], func() {
					defer wg.Done()
					r.a.Prefetch(keys)
				})
			}
			r.k.Sleep(10 * time.Microsecond) // each is now in its grouped read
			if len(r.a.freePrefetch) != 0 {
				t.Fatalf("round %d: %d free records while every thread prefetches", round, len(r.a.freePrefetch))
			}
			wg.Wait()
		}
		if len(r.a.freePrefetch) != threadsPerVM {
			t.Fatalf("%d free records after rounds of %d prefetches at once, want %d", len(r.a.freePrefetch), threadsPerVM, threadsPerVM)
		}
		for _, p := range r.a.freePrefetch {
			if len(p.missing) != 0 || len(p.found) != 0 || slices.ContainsFunc(p.found[:cap(p.found)], func(l lattice.Lattice) bool { return l != nil }) {
				t.Fatalf("a free record holds %d keys and %d results", len(p.missing), len(p.found))
			}
		}
		r.a.Prefetch(coldKeys(r, "big", prefetchKeep+1))
	})
	if n := len(r.a.freePrefetch); n > threadsPerVM {
		t.Fatalf("%d free records, want at most %d", n, threadsPerVM)
	}
	for _, p := range r.a.freePrefetch {
		if cap(p.missing) > prefetchKeep || cap(p.found) > prefetchKeep {
			t.Fatalf("a free record keeps room for %d keys and %d results, past prefetchKeep %d", cap(p.missing), cap(p.found), prefetchKeep)
		}
	}
}

// TestInterleavedPrefetchesMatchPerKeyReads runs two prefetches on one
// cache at once, over overlapping read sets of distinct values, some of
// them absent from Anna, and compares what each installed with what
// per-key reads install on the rig's other cache. The first takes the
// one warm record, the second makes its own. In MK each installed
// capsule also fills its dependency, as a per-key read does.
func TestInterleavedPrefetchesMatchPerKeyReads(t *testing.T) {
	for _, mode := range []core.Mode{core.LWW, core.MK} {
		r := newRig(t, mode)
		r.k.Run("main", func() {
			keys := make([]string, 16)
			for i := range keys {
				keys[i] = fmt.Sprintf("il-%02d", i)
				if i%5 == 4 {
					continue // absent everywhere
				}
				val := []byte(keys[i] + "!")
				if mode == core.MK {
					dep := keys[i] + "-dep"
					r.kv.Preload(dep, lattice.NewCausal(lattice.VectorClock{"w": 1}, nil, []byte(dep)))
					r.kv.Preload(keys[i], lattice.NewCausal(lattice.VectorClock{"w": uint64(i + 2)}, map[string]lattice.VectorClock{dep: {"w": 1}}, val))
				} else {
					r.kv.Preload(keys[i], lattice.NewLWW(lattice.Timestamp{Clock: int64(i + 1)}, val))
				}
			}
			// One warm record, which the first prefetch takes.
			warm := coldKeys(r, "warm", 2)
			r.a.Prefetch(warm)
			for _, key := range warm {
				r.a.Evict(key)
			}
			if len(r.a.freePrefetch) != 1 {
				t.Fatalf("%s: %d free records after one prefetch, want 1", mode, len(r.a.freePrefetch))
			}
			// Reverse order on one side: each sorts its own misses.
			first := slices.Clone(keys[:11])
			second := slices.Clone(keys[5:])
			slices.Reverse(second)
			wg := vtime.NewWaitGroup(r.k)
			for _, set := range [][]string{first, second} {
				wg.Add(1)
				r.k.Go("prefetch", func() {
					defer wg.Done()
					r.a.Prefetch(set)
				})
			}
			wg.Wait()
			if r.a.Stats.Prefetches != 3 {
				t.Fatalf("%s: %d grouped prefetches, want 3", mode, r.a.Stats.Prefetches)
			}
			for _, key := range keys {
				if _, _, err := r.b.Read("oracle", key, core.NewSessionMetaP()); err != nil && err != ErrNotFound {
					t.Fatal(err)
				}
			}
		})
		if len(r.a.store) != len(r.b.store) {
			t.Fatalf("%s: prefetches installed %d keys, per-key reads %d", mode, len(r.a.store), len(r.b.store))
		}
		for key, want := range r.b.store {
			got, ok := r.a.store[key]
			if !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s installed as %v, per-key read installs %v", mode, key, got, want)
			}
		}
	}
}

// TestPrefetchAllocations pins what a cold read set of 10 keys costs on a
// warm cache whose prefetch and grouped-read records are reused: the miss
// list, the results and the grouped keys are theirs, so what remains is
// installing the keys, which re-enter the store and its key-set churn.
// Those maps grow now and then as keys leave and come back (0.14
// allocations a prefetch). A fresh miss list, results or grouped keys
// per call would cost 1 more each.
func TestPrefetchAllocations(t *testing.T) {
	r := newRig(t, core.LWW)
	var keys []string
	r.k.Run("setup", func() { keys = coldKeys(r, "alloc", 10) })
	calls := 0
	body := func() {
		for i := 0; i < calls; i++ {
			for _, key := range keys {
				r.a.Evict(key)
			}
			before := r.a.Stats.PrefetchedKeys
			r.a.Prefetch(keys)
			if r.a.Stats.PrefetchedKeys-before != int64(len(keys)) {
				t.Fatalf("prefetch installed %d keys, want %d", r.a.Stats.PrefetchedKeys-before, len(keys))
			}
		}
	}
	run := func() { r.k.Run("measure", body) }
	calls = 50
	run() // warm the records, the kernel's processes and the pools
	// The difference between 100 and 50 calls per Run is 50 calls' cost,
	// without what one Run and the idle ticks cost.
	base := testing.AllocsPerRun(5, run)
	calls = 100
	got := (testing.AllocsPerRun(5, run) - base) / 50
	t.Logf("cold prefetch of 10 keys: %.2f allocations", got)
	if math.Round(got*10)/10 > 0.2 {
		t.Fatalf("cold prefetch of 10 keys: %.2f allocations, want at most 0.2", got)
	}
}
