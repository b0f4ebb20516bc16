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
		if r.a.freePrefetch.Len() != 1 {
			t.Fatalf("%d free prefetch records, want 1", r.a.freePrefetch.Len())
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
			if r.a.freePrefetch.Len() != 0 {
				t.Fatalf("round %d: %d free records while every thread prefetches", round, r.a.freePrefetch.Len())
			}
			wg.Wait()
		}
		if r.a.freePrefetch.Len() != threadsPerVM {
			t.Fatalf("%d free records after rounds of %d prefetches at once, want %d", r.a.freePrefetch.Len(), threadsPerVM, threadsPerVM)
		}
		for _, p := range listed(&r.a.freePrefetch) {
			if len(p.missing) != 0 || len(p.found) != 0 || slices.ContainsFunc(p.found[:cap(p.found)], func(l lattice.Lattice) bool { return l != nil }) {
				t.Fatalf("a free record holds %d keys and %d results", len(p.missing), len(p.found))
			}
		}
		r.a.Prefetch(coldKeys(r, "big", prefetchKeep+1))
	})
	if n := r.a.freePrefetch.Len(); n > threadsPerVM {
		t.Fatalf("%d free records, want at most %d", n, threadsPerVM)
	}
	for _, p := range listed(&r.a.freePrefetch) {
		if cap(p.missing) > prefetchKeep || cap(p.found) > prefetchKeep {
			t.Fatalf("a free record keeps room for %d keys and %d results, past prefetchKeep %d", cap(p.missing), cap(p.found), prefetchKeep)
		}
	}
}

// TestDroppedPrefetchRecordIsCollectable: after a round of prefetches
// leaves records on the free list, a prefetch of more than prefetchKeep
// keys takes the newest, grows it past the bound and drops it. Nothing
// may keep the dropped record alive, the slot it was taken from included.
func TestDroppedPrefetchRecordIsCollectable(t *testing.T) {
	r := newRig(t, core.LWW)
	var rec weak.Pointer[prefetchCall]
	r.k.Run("main", func() {
		wg := vtime.NewWaitGroup(r.k)
		for th := 0; th < threadsPerVM; th++ {
			keys := coldKeys(r, fmt.Sprintf("t%d", th), 10)
			wg.Add(1)
			r.k.Go(keys[0], func() {
				defer wg.Done()
				r.a.Prefetch(keys)
			})
		}
		wg.Wait()
		p, _ := r.a.freePrefetch.Get()
		rec = weak.Make(p)
		r.a.freePrefetch.Put(p)
		r.a.Prefetch(coldKeys(r, "big", prefetchKeep+1))
		if n := r.a.freePrefetch.Len(); n != threadsPerVM-1 {
			t.Fatalf("%d free records after the big prefetch dropped its own, want %d", n, threadsPerVM-1)
		}
	})
	runtime.GC()
	if rec.Value() != nil {
		t.Fatal("the record the big prefetch grew and dropped is still reachable")
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
			if r.a.freePrefetch.Len() != 1 {
				t.Fatalf("%s: %d free records after one prefetch, want 1", mode, r.a.freePrefetch.Len())
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

// TestPushWriteAndColdReadAtOneInstant starts a cold read, a local write
// and an ingest of a pushed update of one key in three kernel processes at
// one virtual instant. The read misses and waits on Anna while the write
// and the push land, so each method touches the store only between its
// blocking calls. The store must hold the join of the pushed and the
// written versions, and the read must return it; the key must enter the
// key list and the keyset delta once.
func TestPushWriteAndColdReadAtOneInstant(t *testing.T) {
	r := newRig(t, core.MK)
	const key = "k"
	pushed := lattice.NewCausal(lattice.VectorClock{"x": 1}, nil, []byte("pushed"))
	r.kv.Preload(key, pushed)
	var read []byte
	r.k.Run("main", func() {
		wg := vtime.NewWaitGroup(r.k)
		wg.Add(3)
		r.k.Go("read", func() {
			defer wg.Done()
			var err error
			if read, _, err = r.a.Read("read", key, nil); err != nil {
				t.Error(err)
			}
		})
		r.k.Go("write", func() {
			defer wg.Done()
			if _, err := r.a.Write("write", key, []byte("written"), nil, "w"); err != nil {
				t.Error(err)
			}
		})
		r.k.Go("push", func() {
			defer wg.Done()
			r.k.Sleep(ipc) // beside the read's and the write's IPC hop
			r.a.ingestUpdate(key, pushed)
		})
		wg.Wait()
	})
	if r.a.Stats.Misses != 1 || r.a.Stats.Hits != 0 || r.a.Stats.UpdatesPushed != 1 {
		t.Fatalf("stats %+v, want the read to miss and one push", r.a.Stats)
	}
	got := r.a.store[key].(*lattice.Causal)
	wantVC := lattice.VectorClock{"x": 1, "w": 1}
	var sibs []string
	for _, s := range got.Siblings() {
		sibs = append(sibs, string(s))
	}
	slices.Sort(sibs)
	if got.VC().Compare(wantVC.Freeze()) != lattice.Equal || !slices.Equal(sibs, []string{"pushed", "written"}) {
		t.Fatalf("store holds %v with siblings %q, want the join %v of both versions", got.VC(), sibs, wantVC)
	}
	if want := got.DisplayValue(); string(read) != string(want) {
		t.Fatalf("the cold read returned %q, want the stored join's %q", read, want)
	}
	if keys := r.a.Keys(); !slices.Equal(keys, []string{key}) {
		t.Fatalf("Keys = %q, want [%s] once", keys, key)
	}
	if added, removed := r.a.takeDelta(); !slices.Equal(added, []string{key}) || len(removed) != 0 {
		t.Fatalf("keyset delta +%q -%q, want +[%s] once", added, removed, key)
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
