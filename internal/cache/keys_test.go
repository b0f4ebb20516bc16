package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
)

// setToSlice is the keyset delta's list form as the cache built it from
// its two delta maps before the churn sets: the set's keys, ascending.
func setToSlice(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestKeySetMatchesMapOracle drives a cache through seeded histories of
// fills (now and then a burst), evicts, Keys calls and keyset drains, and
// holds it at every call to the forms it replaced: Keys to the store's
// keys sorted afresh, and each drained delta to the two maps a fill and
// an evict used to write — a fill marks added and unmarks removed, an
// evict the reverse.
func TestKeySetMatchesMapOracle(t *testing.T) {
	lat := lattice.NewLWW(lattice.Timestamp{Clock: 1}, []byte("v"))
	var addThenEvict, evictThenAdd, released int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newRig(t, core.LWW).a
		have := make(map[string]bool)
		added, removed := make(map[string]bool), make(map[string]bool)
		universe := 10 + rng.Intn(300)
		fill := func(k string) {
			if !have[k] {
				have[k] = true
				if removed[k] {
					evictThenAdd++
				}
				added[k] = true
				delete(removed, k)
			}
			c.merge(k, lat)
		}
		for step := 0; step < 300; step++ {
			k := fmt.Sprintf("k%04d", rng.Intn(universe))
			switch op := rng.Intn(20); {
			case op == 0: // a burst, as a VM's warm-up
				for i := 0; i < 100; i++ {
					fill(fmt.Sprintf("k%04d", rng.Intn(universe)))
				}
			case op < 9:
				fill(k)
			case op < 13:
				if have[k] {
					delete(have, k)
					if added[k] {
						addThenEvict++
					}
					removed[k] = true
					delete(added, k)
				}
				c.Evict(k)
			case op < 17:
				got, want := c.Keys(), setToSlice(have)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Keys = %v, want %v", seed, step, got, want)
				}
			default:
				listed := c.deltaChurn.set != nil
				a, r := c.takeDelta()
				if listed && c.deltaChurn.set == nil {
					released++
				}
				if !slices.Equal(a, setToSlice(added)) || !slices.Equal(r, setToSlice(removed)) {
					t.Fatalf("seed %d step %d: delta +%v -%v, want +%v -%v", seed, step, a, r, setToSlice(added), setToSlice(removed))
				}
				clear(added)
				clear(removed)
			}
		}
	}
	// The histories must reach the cases the churn set could get wrong.
	for name, n := range map[string]int{
		"added then evicted": addThenEvict, "evicted then re-added": evictThenAdd, "burst released": released,
	} {
		if n == 0 {
			t.Errorf("coverage: no %s case", name)
		}
	}
}

// TestKeysUnchangedAllocationFree: publishing a key set that has not
// changed since the last publication lends the same sorted slice again
// and allocates nothing, however many keys the cache holds.
func TestKeysUnchangedAllocationFree(t *testing.T) {
	c := newRig(t, core.LWW).a
	lat := lattice.NewLWW(lattice.Timestamp{Clock: 1}, []byte("v"))
	for i := 0; i < 1000; i++ {
		c.merge(fmt.Sprintf("k%04d", i), lat)
	}
	first := c.Keys()
	if len(first) != 1000 || !slices.IsSorted(first) {
		t.Fatalf("Keys = %d keys, sorted %v; want 1000 sorted", len(first), slices.IsSorted(first))
	}
	if n := testing.AllocsPerRun(100, func() {
		if got := c.Keys(); &got[0] != &first[0] || len(got) != len(first) {
			t.Fatal("an unchanged key set was not lent as the same slice")
		}
	}); n != 0 {
		t.Errorf("Keys on an unchanged set allocates %.1f times, want 0", n)
	}
}
