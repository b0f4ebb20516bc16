package scheduler

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// mapView is the scheduler's state in the map form it had before the
// view, and pick is pickExecutor as it was then, with the locality score
// recomputed for every thread: together they are the oracle of
// TestPickExecutorMatchesPerThreadScoring. Nothing here reads the view.
type mapView struct {
	k            *vtime.Kernel
	random       bool
	threads      map[simnet.NodeID]core.ExecutorMetrics
	cacheKeys    map[string]map[string]bool
	pins         map[string][]simnet.NodeID // function → threads pinned, ascending
	lastAssigned map[simnet.NodeID]int64
	assignSeq    int64
	// out counts each thread's outstanding attempts, kept across polls
	// as the scheduler keeps them.
	out map[simnet.NodeID]int32
}

// refresh applies one poll's fresh reports: a poll with any replaces the
// threads, and the pins of every function some report pins; a function no
// report mentions keeps its list.
func (m *mapView) refresh(reports []core.ExecutorMetrics) {
	if len(reports) == 0 {
		return
	}
	m.threads = make(map[simnet.NodeID]core.ExecutorMetrics)
	pins := make(map[string][]simnet.NodeID)
	for _, em := range reports {
		m.threads[em.Thread] = em
		for _, fn := range em.Pinned {
			pins[fn] = append(pins[fn], em.Thread)
		}
	}
	for fn, ts := range pins {
		slices.Sort(ts)
		m.pins[fn] = ts
	}
}

func (m *mapView) pick(fn string, args []core.Arg, exclude map[simnet.NodeID]int32, pinnedOnly bool) simnet.NodeID {
	var pool []simnet.NodeID
	if pinnedOnly {
		for _, t := range m.pins[fn] {
			if _, live := m.threads[t]; live {
				pool = append(pool, t)
			}
		}
	}
	if len(pool) == 0 {
		pool = slices.Sorted(maps.Keys(m.threads))
	}
	pool = slices.DeleteFunc(pool, func(id simnet.NodeID) bool { return exclude[id] > 0 })
	if len(pool) == 0 {
		return ""
	}
	var healthy []simnet.NodeID
	for _, id := range pool {
		if m.threads[id].Utilization < utilThreshold {
			healthy = append(healthy, id)
		}
	}
	if len(healthy) > 0 && len(healthy)*2 >= len(pool) {
		pool = healthy
	}
	if m.random {
		return m.assign(pool[m.k.Rand().Intn(len(pool))])
	}
	var refs []string
	for _, a := range args {
		if a.IsRef() {
			refs = append(refs, a.Ref)
		}
	}
	if len(refs) == 0 {
		return m.assign(m.spread(pool))
	}
	bestScore := -1
	var ties []simnet.NodeID
	for _, id := range pool {
		vm := m.threads[id].VM
		score := 0
		for _, r := range refs {
			if m.cacheKeys[vm][r] {
				score++
			}
		}
		if score > bestScore {
			bestScore, ties = score, ties[:0]
		}
		if score == bestScore {
			ties = append(ties, id)
		}
	}
	if len(ties) > 1 {
		return m.assign(m.spread(ties))
	}
	return m.assign(ties[0])
}

func (m *mapView) spread(pool []simnet.NodeID) simnet.NodeID {
	if idle := slices.DeleteFunc(slices.Clone(pool), func(id simnet.NodeID) bool { return m.out[id] > 0 }); len(idle) > 0 {
		pool = idle
	}
	oldest := int64(1<<62 - 1)
	var ties []simnet.NodeID
	for _, id := range pool {
		switch at := m.lastAssigned[id]; {
		case at < oldest:
			oldest, ties = at, []simnet.NodeID{id}
		case at == oldest:
			ties = append(ties, id)
		}
	}
	return ties[m.k.Rand().Intn(len(ties))]
}

func (m *mapView) assign(id simnet.NodeID) simnet.NodeID {
	m.assignSeq++
	m.lastAssigned[id] = m.assignSeq
	return id
}

// pickScheduler is a scheduler holding only what pickExecutor and the
// view's builders read.
func pickScheduler(seed int64, random bool) *Scheduler {
	return &Scheduler{
		k:            vtime.NewKernel(seed),
		cfg:          Config{RandomPolicy: random},
		cacheKeys:    make(map[string]codec.StrList),
		pins:         make(map[string][]simnet.NodeID),
		lastAssigned: make(map[simnet.NodeID]savedStamp),
	}
}

// stamps is every assignment stamp the scheduler holds, saved or in the
// view.
func (s *Scheduler) stamps() map[simnet.NodeID]int64 {
	out := make(map[simnet.NodeID]int64, len(s.lastAssigned))
	for id, saved := range s.lastAssigned {
		if saved.stamp != 0 {
			out[id] = saved.stamp
		}
	}
	for _, r := range s.view.threads {
		if r.stamp != 0 {
			out[r.id] = r.stamp
		}
	}
	return out
}

// Outstanding is every nonzero outstanding count the scheduler holds,
// saved or in the view (test hook).
func (s *Scheduler) Outstanding() map[simnet.NodeID]int32 {
	out := make(map[simnet.NodeID]int32)
	for id, saved := range s.lastAssigned {
		out[id] = saved.out
	}
	for _, r := range s.view.threads {
		out[r.id] = r.out
	}
	maps.DeleteFunc(out, func(_ simnet.NodeID, n int32) bool { return n == 0 })
	return out
}

// published is vm's key list as a scheduler reads it: a CacheMetrics
// publication encoded and decoded, whose Keys view the encoding.
func published(vm string, keys []string) core.CacheMetrics {
	return codec.MustDecode(codec.MustEncode(core.CacheMetrics{VM: vm, Keys: codec.StrListOf(keys)})).(core.CacheMetrics)
}

// elems copies a key list's elements out.
func elems(l codec.StrList) []string {
	var out []string
	codec.StrList{}.Diff(l, nil, func(k []byte) { out = append(out, string(k)) })
	return out
}

// TestPickExecutorMatchesPerThreadScoring drives pickExecutor over the
// view and the map-form oracle through the same seeded histories: random
// views, polls between picks in which threads leave, re-enter and change
// load, pins inserted by registration between polls, attempts counted on
// live threads and ended on threads in or out of the view, and one
// history in five under the random policy. The view is pure bookkeeping,
// so every pick, every assignment stamp and outstanding count and the
// kernel's next random draw must agree: a pool or tie set that differs by
// one thread moves a draw, and with it every table. Caches publish encoded key lists, which the index
// merge-walks in byte order; the pool holds keys that are byte-prefixes
// of others (k, k1, k10), the empty key, keys with bytes of 0x80 and above, and one
// longer than a string conversion's stack buffer.
func TestPickExecutorMatchesPerThreadScoring(t *testing.T) {
	keys := []string{"", "k", "k1", "k1\x80", "k\x7f", "k\x80", "k\xff", "\xc3\xa9t\xc3\xa9",
		"a-key-name-longer-than-thirty-two-bytes/0", "a-key-name-longer-than-thirty-two-bytes/01"}
	for i := 0; i < 12; i++ {
		keys = append(keys, fmt.Sprintf("k%02d", i))
	}
	slices.Sort(keys)
	var singleWinner, allTie, multiTie, excluded, randomPicks int
	var reentries, retained, inserted, busyPicks, endedOutside int
	var entered, left, vmSetChanges int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		random := seed%5 == 0
		// 2-6 VMs of 1-4 threads, 66-70 VMs in one history in 25 (a key's
		// VM bitset spans two words). Even seeds name threads so that
		// ascending ids keep a VM's threads adjacent (the real layout);
		// odd seeds interleave VMs, which the per-VM score must survive.
		var universe []core.ExecutorMetrics
		var vms []string
		nvm := 2 + rng.Intn(5)
		if seed%25 == 1 {
			nvm += 64
		}
		for v := 0; v < nvm; v++ {
			vm := fmt.Sprintf("vm%d", v)
			vms = append(vms, vm)
			for i, n := 0, 1+rng.Intn(4); i < n; i++ {
				id := simnet.NodeID(fmt.Sprintf("exec-%s-%d", vm, i))
				if seed%2 == 1 {
					id = simnet.NodeID(fmt.Sprintf("exec-%d-%s", i, vm))
				}
				universe = append(universe, core.ExecutorMetrics{Thread: id, VM: vm})
			}
		}
		// One poll's reports: each thread reports with probability
		// present (load and pins drawn afresh); a thread pins "f" with
		// probability 1/3 unless noPins.
		poll := func(present float64, noPins bool) []core.ExecutorMetrics {
			var out []core.ExecutorMetrics
			for _, em := range universe {
				if rng.Float64() >= present {
					continue
				}
				em.Utilization = 0
				if rng.Intn(4) == 0 {
					em.Utilization = 0.95 // over utilThreshold
				}
				em.Pinned = nil
				if !noPins && rng.Intn(3) == 0 {
					em.Pinned = []string{"f"}
				}
				out = append(out, em)
			}
			return out
		}

		got := pickScheduler(seed, random)
		want := &mapView{
			k: vtime.NewKernel(seed), random: random,
			threads:      make(map[simnet.NodeID]core.ExecutorMetrics),
			cacheKeys:    make(map[string]map[string]bool),
			pins:         make(map[string][]simnet.NodeID),
			lastAssigned: make(map[simnet.NodeID]int64),
			out:          make(map[simnet.NodeID]int32),
		}
		// Overlapping key sets; one VM in four has published none and is
		// absent from cacheKeys. Every tenth history has no cached key at
		// all: all threads tie.
		advertise := func(vm string) {
			var list []string
			set := make(map[string]bool)
			for _, k := range keys {
				if seed%10 != 0 && rng.Intn(3) == 0 {
					list = append(list, k)
					set[k] = true
				}
			}
			got.setKeys([]core.CacheMetrics{published(vm, list)})
			checkIndex(t, got)
			want.cacheKeys[vm] = set
		}
		// A small delta: 1-3 keys enter or leave one VM's last list.
		nudge := func(vm string) {
			set := maps.Clone(want.cacheKeys[vm])
			if set == nil {
				set = make(map[string]bool)
			}
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				if k := keys[rng.Intn(len(keys))]; set[k] {
					delete(set, k)
					left++
				} else {
					set[k] = true
					entered++
				}
			}
			got.setKeys([]core.CacheMetrics{published(vm, slices.Sorted(maps.Keys(set)))})
			checkIndex(t, got)
			want.cacheKeys[vm] = set
		}
		apply := func(reports []core.ExecutorMetrics) {
			before := len(want.pins["f"])
			reportsF := false
			for _, em := range reports {
				reportsF = reportsF || slices.Contains(em.Pinned, "f")
				if _, live := want.threads[em.Thread]; !live && want.lastAssigned[em.Thread] != 0 {
					reentries++
				}
			}
			if len(reports) > 0 && !reportsF && before > 0 {
				retained++
			}
			want.refresh(reports)
			vmsBefore := slices.Clone(got.view.vms)
			got.setThreads(slices.Clone(reports))
			if len(reports) > 0 && !slices.Equal(vmsBefore, got.view.vms) {
				vmSetChanges++
			}
			checkIndex(t, got)
		}
		for _, vm := range vms {
			if rng.Intn(4) != 0 {
				advertise(vm)
			}
		}
		apply(poll(1, false))

		for call := 0; call < 40; call++ {
			switch rng.Intn(10) {
			case 0: // a poll: threads leave and re-enter, load and pins move
				apply(poll(0.3+0.7*rng.Float64(), rng.Intn(3) == 0))
				if rng.Intn(2) == 0 {
					advertise(vms[rng.Intn(len(vms))])
				} else { // the same publications read again
					var again []core.CacheMetrics
					for vm, list := range got.cacheKeys {
						again = append(again, core.CacheMetrics{VM: vm, Keys: list})
					}
					got.setKeys(again)
					checkIndex(t, got)
				}
			case 1: // an empty poll changes nothing
				apply(nil)
			case 2: // registration pins "f" on a live thread between polls
				var cands []simnet.NodeID
				for _, r := range got.view.threads {
					if !slices.Contains(want.pins["f"], r.id) {
						cands = append(cands, r.id)
					}
				}
				if len(cands) > 0 {
					tgt := cands[rng.Intn(len(cands))]
					at, _ := slices.BinarySearch(want.pins["f"], tgt)
					want.pins["f"] = slices.Insert(want.pins["f"], at, tgt)
					got.addPin("f", tgt)
					inserted++
				}
			case 3: // a cache publishes a few keys in or out
				nudge(vms[rng.Intn(len(vms))])
			case 4, 5: // dispatch counts an attempt on a live thread, or untrack ends one
				if busy := slices.Sorted(maps.Keys(want.out)); len(busy) > 0 && rng.Intn(2) == 0 {
					id := busy[rng.Intn(len(busy))]
					if _, ok := got.view.indexOf(id); !ok {
						endedOutside++
					}
					got.count(id, -1)
					if want.out[id]--; want.out[id] == 0 {
						delete(want.out, id)
					}
				} else if n := len(got.view.threads); n > 0 {
					id := got.view.threads[rng.Intn(n)].id
					got.count(id, 1)
					want.out[id]++
				}
				if !maps.Equal(got.Outstanding(), want.out) {
					t.Fatalf("seed %d call %d: outstanding counts diverged", seed, call)
				}
			}
			if len(want.out) > 0 {
				busyPicks++
			}

			var args []core.Arg
			for i, n := 0, rng.Intn(5); i < n; i++ {
				args = append(args, core.Arg{Ref: keys[rng.Intn(len(keys))]})
			}
			if rng.Intn(3) == 0 {
				args = append(args, core.Arg{Val: []byte{7}})
			}
			var exclude map[simnet.NodeID]int32
			if rng.Intn(3) == 0 {
				exclude = make(map[simnet.NodeID]int32)
				for _, em := range universe {
					if rng.Intn(4) == 0 {
						exclude[em.Thread] = 1
					}
				}
				excluded++
			}
			pinnedOnly := rng.Intn(3) == 0

			g := got.pickExecutor("f", args, exclude, pinnedOnly)
			w := want.pick("f", args, exclude, pinnedOnly)
			if g != w {
				t.Fatalf("seed %d call %d: picked %q, per-thread scoring picks %q", seed, call, g, w)
			}
			if got.assignSeq != want.assignSeq || !maps.Equal(got.stamps(), want.lastAssigned) || !maps.Equal(got.Outstanding(), want.out) {
				t.Fatalf("seed %d call %d: assignment stamps diverged", seed, call)
			}
			switch n := len(got.pickScratch.ties); {
			case random:
				randomPicks++
			case !slices.ContainsFunc(args, core.Arg.IsRef) || g == "":
			case n == 1:
				singleWinner++
			case n == len(got.view.threads):
				allTie++
			default:
				multiTie++
			}
		}
		if g, w := got.k.Rand().Int63(), want.k.Rand().Int63(); g != w {
			t.Fatalf("seed %d: the kernel's random stream diverged (a tie set changed size)", seed)
		}
		got.k.Stop()
		want.k.Stop()
	}
	// The histories must reach the shapes the view could get wrong.
	for name, n := range map[string]int{
		"single-winner": singleWinner, "all-tie": allTie, "partial-tie": multiTie,
		"exclude": excluded, "random-policy": randomPicks,
		"re-entry with a stamp": reentries, "pins retained": retained, "pin inserted": inserted,
		"pick beside a busy thread": busyPicks, "attempt ended outside the view": endedOutside,
		"key entered": entered, "key left": left, "VM set change": vmSetChanges,
	} {
		if n == 0 {
			t.Errorf("coverage: no %s case", name)
		}
	}
}

// TestSpreadPrefersAnIdleThread: of two threads that tie on locality, a
// pick takes the one with no attempt outstanding even when the busy one
// was assigned to less recently; when both are busy, or both idle, it
// takes the least-recently-assigned. Each pick draws once from the
// kernel's stream, as it did before the counts.
func TestSpreadPrefersAnIdleThread(t *testing.T) {
	s := pickScheduler(1, false)
	defer s.k.Stop()
	s.setThreads([]core.ExecutorMetrics{{Thread: "exec-a", VM: "vm0"}, {Thread: "exec-b", VM: "vm1"}})
	s.view.threads[0].stamp, s.view.threads[1].stamp, s.assignSeq = 1, 2, 2
	for _, c := range []struct {
		name   string
		a, b   int32 // each thread's outstanding count before the pick
		picked simnet.NodeID
	}{
		{"a busy, assigned longer ago", 1, 0, "exec-b"},
		{"both busy", 1, 1, "exec-a"},
		{"both idle", 0, 0, "exec-b"},
	} {
		s.view.threads[0].out, s.view.threads[1].out = c.a, c.b
		if got := s.pickExecutor("f", nil, nil, false); got != c.picked {
			t.Errorf("%s: picked %s, want %s", c.name, got, c.picked)
		}
	}
	twin := vtime.NewKernel(1)
	defer twin.Stop()
	for range 3 {
		twin.Rand().Int63()
	}
	if s.k.Rand().Int63() != twin.Rand().Int63() {
		t.Error("three picks did not draw three times")
	}
}

// rebuiltIndex is the view's key index built from scratch, as the
// scheduler built it before the index moved by difference: every key its
// VMs last advertised, each VM's bit set, in fresh storage.
func rebuiltIndex(s *Scheduler) (map[string]int, []uint64) {
	v := &s.view
	words := (len(v.vms) + 63) / 64
	holders := make(map[string]int)
	var bits []uint64
	for vm, name := range v.vms {
		for _, k := range elems(s.cacheKeys[name]) {
			o, ok := holders[k]
			if !ok {
				o = len(bits)
				holders[k] = o
				bits = append(bits, make([]uint64, words)...)
			}
			bits[o+vm/64] |= 1 << (vm % 64)
		}
	}
	return holders, bits
}

// checkIndex holds the view's key index to rebuiltIndex key by key: the
// same keys, each with the same VM bits (offsets may differ), and every
// other bitset in storage all zero and on the free list.
func checkIndex(t *testing.T, s *Scheduler) {
	t.Helper()
	v := &s.view
	words := (len(v.vms) + 63) / 64
	holders, bits := rebuiltIndex(s)
	if len(v.holders) != len(holders) {
		t.Fatalf("index holds %d keys, a rebuild %d", len(v.holders), len(holders))
	}
	for k, o := range holders {
		g, ok := v.holders[k]
		if !ok {
			t.Fatalf("index lacks %q", k)
		}
		if !slices.Equal(v.bits[g:g+words], bits[o:o+words]) {
			t.Fatalf("%q: index bits %x, a rebuild's %x", k, v.bits[g:g+words], bits[o:o+words])
		}
	}
	if words > 0 && len(v.bits) != (len(v.holders)+len(v.free))*words {
		t.Fatalf("index storage %d words, want %d keys and %d free offsets of %d", len(v.bits), len(v.holders), len(v.free), words)
	}
	for _, o := range v.free {
		if slices.ContainsFunc(v.bits[o:o+words], func(w uint64) bool { return w != 0 }) {
			t.Fatalf("free offset %d has bits set", o)
		}
	}
}

// TestKeyIndexDeltaAllocations: a cache's new key list, an encoded
// publication read in place, moves the index by its difference, so what
// a publication costs follows the keys that entered or left, not the
// keys held. A list one key shorter than the last allocates nothing, its
// key's lookup and delete included (the keys are longer than a string
// conversion's stack buffer); one key longer allocates the index's copy
// of the name, the same at 1,000 and at 10,000 keys. (Rebuilding the index made
// a map and bitsets sized by every key.) A change to the set of VMs
// re-indexes every key under the name the index already holds, so it
// too allocates the same at both sizes.
func TestKeyIndexDeltaAllocations(t *testing.T) {
	const steps = 100
	added, changed := map[int]float64{}, map[int]float64{}
	for _, n := range []int{1000, 10000} {
		s := pickScheduler(1, false)
		var reports []core.ExecutorMetrics
		for v := 0; v < 4; v++ {
			vm := fmt.Sprintf("vm%d", v)
			reports = append(reports, core.ExecutorMetrics{Thread: simnet.NodeID("exec-" + vm), VM: vm})
			s.cacheKeys[vm] = published(vm, []string{"shared"}).Keys
		}
		s.setThreads(reports)
		full := make([]string, n)
		for i := range full {
			full[i] = fmt.Sprintf("vm0/a-key-longer-than-32-bytes/%05d", i)
		}
		// list(i) is full without its first i keys: each step one key
		// leaves (or, walked back, enters), in a slice of its own.
		list := func(i int) []core.CacheMetrics { return []core.CacheMetrics{published("vm0", full[i:])} }
		lists := make([][]core.CacheMetrics, steps+2)
		for i := range lists {
			lists[i] = list(i)
		}
		s.setKeys(list(0))
		s.setKeys(lists[steps+1]) // warm the free list to the steps' depth
		s.setKeys(list(0))
		i := 0
		if got := testing.AllocsPerRun(steps, func() {
			i++
			s.setKeys(lists[i])
		}); got != 0 {
			t.Errorf("%d keys: one key out allocates %.1f times, want 0", n, got)
		}
		checkIndex(t, s)
		added[n] = testing.AllocsPerRun(steps, func() {
			i--
			s.setKeys(lists[i])
		})
		checkIndex(t, s)
		if len(s.view.holders) != n+1 {
			t.Fatalf("%d keys: index holds %d after the walk back", n, len(s.view.holders))
		}
		// The VM set changes: vm4 joins holding one of vm0's keys and one
		// of its own, then leaves, and so on. The held keys keep their
		// names; only vm4's own enters anew.
		s.cacheKeys["vm4"] = published("vm4", []string{full[0], "vm4/own"}).Keys
		fleets := [][]core.ExecutorMetrics{reports, append(slices.Clone(reports), core.ExecutorMetrics{Thread: "exec-vm4", VM: "vm4"})}
		j := 0
		changed[n] = testing.AllocsPerRun(steps, func() {
			j++
			s.setThreads(fleets[j%2])
		})
		checkIndex(t, s)
		s.k.Stop()
	}
	t.Logf("one key in allocates %.1f times at 1,000 keys, %.1f at 10,000", added[1000], added[10000])
	if added[1000] != added[10000] || added[1000] > 1 {
		t.Errorf("one key in allocates %.1f times at 1,000 keys and %.1f at 10,000, want the same, at most 1", added[1000], added[10000])
	}
	t.Logf("a VM-set change allocates %.1f times at 1,000 keys, %.1f at 10,000", changed[1000], changed[10000])
	if changed[1000] != changed[10000] {
		t.Errorf("a VM-set change allocates %.1f times at 1,000 keys and %.1f at 10,000, want the same", changed[1000], changed[10000])
	}
}

// TestPickExecutorAllocationFree: on a warm view a pick reads
// precomputed slices and scratch space — with and without references,
// pinned or not, with nothing to exclude or a re-execution's exclude set.
func TestPickExecutorAllocationFree(t *testing.T) {
	s := pickScheduler(1, false)
	defer s.k.Stop()
	var reports []core.ExecutorMetrics
	for v := 0; v < 6; v++ {
		vm := fmt.Sprintf("vm%d", v)
		for i := 0; i < 3; i++ {
			em := core.ExecutorMetrics{Thread: simnet.NodeID(fmt.Sprintf("exec-%s-%d", vm, i)), VM: vm}
			if i == 0 {
				em.Pinned = []string{"f"}
			}
			if v == 0 {
				em.Utilization = 0.95
			}
			reports = append(reports, em)
		}
		s.cacheKeys[vm] = published(vm, []string{fmt.Sprintf("k%d", v%3)}).Keys
	}
	s.setThreads(reports)
	refs := []core.Arg{{Ref: "k1"}, {Ref: "k2"}, {Val: []byte{7}}}
	exclude := map[simnet.NodeID]int32{"exec-vm1-0": 1, "exec-vm2-1": 1}
	for _, c := range []struct {
		name       string
		args       []core.Arg
		exclude    map[simnet.NodeID]int32
		pinnedOnly bool
	}{
		{"refs", refs, nil, false},
		{"no refs", nil, nil, false},
		{"pinned, refs", refs, nil, true},
		{"pinned, no refs", nil, nil, true},
		{"exclude, refs", refs, exclude, false},
		{"exclude, pinned", nil, exclude, true},
	} {
		if n := testing.AllocsPerRun(200, func() {
			if s.pickExecutor("f", c.args, c.exclude, c.pinnedOnly) == "" {
				t.Fatal("no pick")
			}
		}); n != 0 {
			t.Errorf("%s: pickExecutor allocates %.1f times per pick, want 0", c.name, n)
		}
	}
}

// TestTrackedStaysInItsSizeClass: a scheduler keeps up to freeRecords
// tracking records between requests and allocates one whenever a burst
// outruns them, so a field that pushes a record past the 208-byte size
// class costs each of them 16 bytes a bare invocation does not use.
func TestTrackedStaysInItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(tracked{}); n > 208 {
		t.Fatalf("tracked is %d bytes, want at most 208", n)
	}
}
