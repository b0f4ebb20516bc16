package cache

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// TestSnapshotTablesBoundedAtQuiescence runs 12 concurrent DSC requests
// across both caches of the rig, each reading its keys at a and again at
// b, two of them past snapTableKeep keys, and ends each with a DAGDone
// to both caches over the network. Once the notices land, neither cache
// holds a request's snapshots, and each keeps at most snapFreeMax
// emptied tables; a is at its bound, since ten small tables came back to
// it at once.
func TestSnapshotTablesBoundedAtQuiescence(t *testing.T) {
	r := newRig(t, core.DSC)
	sink := r.net.AddNode("sink")
	r.k.Run("main", func() {
		for i := 0; i < 100; i++ {
			r.client.Put(fmt.Sprintf("k%d", i), lattice.NewCausal(lattice.VectorClock{"w": 1}, nil, []byte{byte(i)}))
		}
		wg := vtime.NewWaitGroup(r.k)
		for req := 0; req < 12; req++ {
			n := 5
			if req%6 == 5 {
				n = snapTableKeep + 16 // a post's fan-out: its tables are dropped
			}
			id := fmt.Sprintf("req%d", req)
			wg.Add(1)
			r.k.Go(id, func() {
				defer wg.Done()
				meta := core.NewSessionMeta()
				for _, c := range []*Cache{r.a, r.b} {
					for i := 0; i < n; i++ {
						if _, _, err := c.Read(id, fmt.Sprintf("k%d", (req*7+i)%100), &meta); err != nil {
							t.Error(err)
						}
					}
				}
				for _, c := range []*Cache{r.a, r.b} {
					sink.Send(c.ID(), &core.DAGDone{ReqID: id}, 24)
				}
			})
		}
		wg.Wait()
		r.k.Sleep(10 * time.Millisecond) // the last notices land
	})
	for _, c := range []*Cache{r.a, r.b} {
		if len(c.snapshots) != 0 {
			t.Errorf("%s holds %d requests' snapshots at quiescence, want 0", c.ID(), len(c.snapshots))
		}
		if c.freeSnaps.Len() > snapFreeMax {
			t.Errorf("%s keeps %d free tables, want at most %d", c.ID(), c.freeSnaps.Len(), snapFreeMax)
		}
		for _, snaps := range listed(&c.freeSnaps) {
			if len(snaps) != 0 {
				t.Errorf("%s keeps a free table holding %d snapshots", c.ID(), len(snaps))
			}
		}
	}
	if r.a.freeSnaps.Len() != snapFreeMax {
		t.Errorf("a keeps %d free tables, want its bound %d", r.a.freeSnaps.Len(), snapFreeMax)
	}
}

// TestFinishedSnapshotsAreCollectable: a capsule that only finished
// requests snapshotted is garbage once its key is overwritten. The free
// list hands a table to a request whose table then outgrows
// snapTableKeep and is dropped at its DAGDone; the slot the table was
// taken from must not keep it, or every capsule in it stays alive.
func TestFinishedSnapshotsAreCollectable(t *testing.T) {
	r := newRig(t, core.DSC)
	var snapped []weak.Pointer[lattice.Causal]
	r.k.Run("main", func() {
		install(r.a, "warm", 1)
		if _, _, err := r.a.Read("warm", "warm", nil); err != nil {
			t.Fatal(err)
		}
		r.a.handleDAGDone(simnet.Message{}, &core.DAGDone{ReqID: "warm"})
		if r.a.freeSnaps.Len() != 1 {
			t.Fatalf("%d free tables after the first request, want 1", r.a.freeSnaps.Len())
		}
		// The next request takes that table and snapshots more keys than
		// a kept table may hold.
		for i := 0; i <= snapTableKeep; i++ {
			key := fmt.Sprintf("big%d", i)
			snapped = append(snapped, weak.Make(install(r.a, key, 1)))
			if _, _, err := r.a.Read("big", key, nil); err != nil {
				t.Fatal(err)
			}
		}
		r.a.handleDAGDone(simnet.Message{}, &core.DAGDone{ReqID: "big"})
		for i := 0; i <= snapTableKeep; i++ {
			install(r.a, fmt.Sprintf("big%d", i), 2) // overwrites the snapshotted version
		}
	})
	if len(r.a.snapshots) != 0 || r.a.freeSnaps.Len() != 0 {
		t.Fatalf("a holds %d requests' snapshots and %d free tables, want 0 and 0", len(r.a.snapshots), r.a.freeSnaps.Len())
	}
	runtime.GC()
	live := 0
	for _, p := range snapped {
		if p.Value() != nil {
			live++
		}
	}
	if live != 0 {
		t.Fatalf("%d of %d capsules snapshotted only by a finished request are still reachable", live, len(snapped))
	}
}

// install merges a fresh version of key, at counter n, into c's store
// and returns its capsule; nothing else holds it.
func install(c *Cache, key string, n uint64) *lattice.Causal {
	cap := lattice.NewCausal(lattice.VectorClock{"w": n}, nil, []byte(key))
	c.merge(key, cap)
	return cap
}

// listed returns the values on l, newest first, and leaves l as it was.
func listed[T any](l *vtime.FreeList[T]) []T {
	var vs []T
	for v, ok := l.Get(); ok; v, ok = l.Get() {
		vs = append(vs, v)
	}
	for _, v := range slices.Backward(vs) {
		l.Put(v)
	}
	return vs
}
