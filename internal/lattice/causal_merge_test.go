package lattice

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The causal merge used to be "append deep copies of the other capsule's
// versions, then normalize": coalesce, prune, sort by the fmt-rendered
// clock, over versions whose clocks were maps. It survives here,
// unchanged and still on map-form versions, as the oracle the antichain
// insert over frozen clocks and the allocation-free renderer are held to.

// oracleString is VectorClock.String as fmt rendered it.
func oracleString(vc VectorClock) string {
	ids := make([]string, 0, len(vc))
	for id := range vc {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%s:%d", id, vc[id])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// mapVersion is a Version in the map form: clocks as VectorClock.
type mapVersion struct {
	VC    VectorClock
	Deps  map[string]VectorClock
	Value []byte
}

// thawVersions returns c's versions in the map form, nil deps as nil.
func thawVersions(c *Causal) []mapVersion {
	var out []mapVersion
	for _, v := range c.versions {
		m := mapVersion{VC: thaw(v.VC), Value: v.Value}
		if v.Deps.e != nil {
			m.Deps = thawDeps(v.Deps)
		}
		out = append(out, m)
	}
	return out
}

// freezeVersions builds the capsule holding vs as they are, with the
// clock a constructor would store.
func freezeVersions(vs []mapVersion) *Causal {
	c := &Causal{}
	for _, v := range vs {
		c.versions = append(c.versions, Version{VC: v.VC.Freeze(), Deps: freezeDeps(v.Deps), Value: v.Value})
	}
	c.vc = joinAll(c.versions)
	return c
}

// joinAll is the join VC once computed on every call, and the clock a
// capsule's constructor must store: the versions' clocks, each observed
// in turn into an empty clock, so an entry that is zero in every version
// is dropped.
func joinAll(vs []Version) Clock {
	n := 0
	for _, v := range vs {
		n += v.VC.Len()
	}
	out := make([]clockEntry, 0, n)
	for _, v := range vs {
		for _, x := range v.VC.e {
			if x.n > 0 {
				out = append(out, x)
			}
		}
	}
	slices.SortFunc(out, byID)
	w := 0
	for _, x := range out {
		if w > 0 && out[w-1].id == x.id {
			out[w-1].n = max(out[w-1].n, x.n)
			continue
		}
		out[w] = x
		w++
	}
	return Clock{e: out[:w]}
}

// storedJoin reports whether l's stored clock is, entry for entry, the
// join of its versions' clocks, which VC once computed on every call.
func storedJoin(l Lattice) bool {
	c := l.(*Causal)
	return slices.Equal(c.VC().e, joinAll(c.versions).e)
}

func oracleCloneVersion(v mapVersion) mapVersion {
	c := mapVersion{VC: v.VC.Copy(), Value: v.Value}
	if v.Deps != nil {
		c.Deps = make(map[string]VectorClock, len(v.Deps))
		for k, vc := range v.Deps {
			c.Deps[k] = vc.Copy()
		}
	}
	return c
}

func oracleUnionDeps(a, b map[string]VectorClock) map[string]VectorClock {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make(map[string]VectorClock, len(a)+len(b))
	for k, vc := range a {
		out[k] = vc.Copy()
	}
	for k, vc := range b {
		if cur, ok := out[k]; ok {
			cur.Observe(vc)
		} else {
			out[k] = vc.Copy()
		}
	}
	return out
}

// oracleMergeMaps returns the join of c and o in versions that share no
// map with either.
func oracleMergeMaps(c, o []mapVersion) []mapVersion {
	var all []mapVersion
	for _, v := range c {
		all = append(all, oracleCloneVersion(v))
	}
	for _, v := range o {
		all = append(all, oracleCloneVersion(v))
	}
	uniq := make([]mapVersion, 0, len(all))
	for _, v := range all {
		coalesced := false
		for i := range uniq {
			if uniq[i].VC.Compare(v.VC) == Equal && bytes.Equal(uniq[i].Value, v.Value) {
				uniq[i].Deps = oracleUnionDeps(uniq[i].Deps, v.Deps)
				coalesced = true
				break
			}
		}
		if !coalesced {
			uniq = append(uniq, v)
		}
	}
	kept := make([]mapVersion, 0, len(uniq))
	for i, v := range uniq {
		dominated := false
		for j, u := range uniq {
			if i != j && v.VC.Compare(u.VC) == DominatedBy {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, v)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if si, sj := oracleString(kept[i].VC), oracleString(kept[j].VC); si != sj {
			return si < sj
		}
		return bytes.Compare(kept[i].Value, kept[j].Value) < 0
	})
	return kept
}

// oracleMerge is oracleMergeMaps on capsules.
func oracleMerge(c, o *Causal) *Causal {
	return freezeVersions(oracleMergeMaps(thawVersions(c), thawVersions(o)))
}

// oracleVC is the map form's Causal.VC: every sibling observed into an
// empty clock.
func oracleVC(vs []mapVersion) VectorClock {
	out := make(VectorClock)
	for _, v := range vs {
		out.Observe(v.VC)
	}
	return out
}

// oracleDepsUnion is the map form's Causal.DepsUnion, the union the
// Deps walk yields.
func oracleDepsUnion(vs []mapVersion) map[string]VectorClock {
	out := make(map[string]VectorClock)
	for _, v := range vs {
		for k, vc := range v.Deps {
			if cur, ok := out[k]; ok {
				cur.Observe(vc)
			} else {
				out[k] = vc.Copy()
			}
		}
	}
	return out
}

// oracleDigest is the map form's Causal.Digest.
func oracleDigest(vs []mapVersion) uint64 {
	var h uint64
	for _, v := range vs {
		d := v.VC.Digest()
		d ^= d >> 33
		d *= 0xFF51AFD7ED558CCD
		d ^= d >> 33
		h += d
	}
	return h
}

// oracleMetadataSize is the map form's Causal.MetadataSize.
func oracleMetadataSize(vs []mapVersion) int {
	n := 0
	for _, v := range vs {
		n += v.VC.ByteSize()
		for k, vc := range v.Deps {
			n += len(k) + vc.ByteSize()
		}
	}
	return n
}

// histGen draws versions from a small pool of clocks over shared writer
// ids, so two capsules of one history keep meeting the same clock: with
// the same payload (a repeat, deps possibly different) or another (a
// sibling under an equal clock).
type histGen struct {
	rng  *rand.Rand
	pool []VectorClock
}

func newHistGen(rng *rand.Rand) *histGen {
	g := &histGen{rng: rng}
	for i := 8 + rng.Intn(12); i > 0; i-- {
		vc := VectorClock{}
		for w := 0; w < 5; w++ {
			if n := rng.Intn(4); n > 0 {
				vc[fmt.Sprintf("w%d", w)] = uint64(n)
			}
		}
		if len(vc) == 0 {
			vc["w0"] = 1
		}
		g.pool = append(g.pool, vc)
	}
	return g
}

func (g *histGen) deps() map[string]VectorClock {
	switch g.rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return map[string]VectorClock{}
	}
	deps := map[string]VectorClock{}
	for i := 1 + g.rng.Intn(3); i > 0; i-- {
		deps[fmt.Sprintf("k%d", g.rng.Intn(3))] = g.pool[g.rng.Intn(len(g.pool))].Copy()
	}
	return deps
}

// capsule folds up to n drawn versions with the oracle, so the inputs are
// canonical by the old definition whatever the new code does.
func (g *histGen) capsule(n int) []mapVersion {
	var c []mapVersion
	for i := 1 + g.rng.Intn(n); i > 0; i-- {
		vc := g.pool[g.rng.Intn(len(g.pool))].Copy()
		one := []mapVersion{{VC: vc, Deps: g.deps(), Value: []byte{byte(g.rng.Intn(2))}}}
		if c == nil {
			c = one
		} else {
			c = oracleMergeMaps(c, one)
		}
	}
	return c
}

// TestMergeMatchesUnionNormalize is the differential test of the antichain
// insert: over seeded random histories, merging capsule after capsule
// into one receiver gives exactly what union-then-normalize over map-form
// versions gives — sibling order, clocks, dependency maps down to nil
// versus empty, payloads, and everything derived from them (VC, the
// Deps walk, Digest, sizes, the displayed value) — and leaves the
// argument, whose versions it now shares, untouched.
//
// Mutations of insert this was seen to fail under: returning at an equal
// clock and payload without unioning the dependency sets; keeping a
// sibling that v dominates (Dominates falling through to the append);
// appending v instead of inserting it at canonicalIndex.
func TestMergeMatchesUnionNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var dropped, replaced, repeats, repeatsNewDeps, nilVsEmpty, equalClockSiblings, widest, pastScratch int
	for trial := 0; trial < 100; trial++ {
		g := newHistGen(rng)
		want := g.capsule(16)
		got := freezeVersions(want)
		for step := 0; step < 6; step++ {
			argVersions := g.capsule(16)
			arg := freezeVersions(argVersions)
			argBefore := canon(arg)
			widest = max(widest, len(got.versions), len(arg.versions))
			if len(got.versions)+len(arg.versions) > mergeScratch {
				pastScratch++
			}
			for _, v := range argVersions {
				for _, u := range want {
					switch ord := v.VC.Compare(u.VC); {
					case ord == DominatedBy:
						dropped++
					case ord == Dominates:
						replaced++
					case ord == Equal && !bytes.Equal(u.Value, v.Value):
						equalClockSiblings++
					case ord == Equal:
						repeats++
						if !reflect.DeepEqual(oracleUnionDeps(u.Deps, v.Deps), oracleUnionDeps(u.Deps, nil)) {
							repeatsNewDeps++
						}
						if len(u.Deps) == 0 && len(v.Deps) == 0 && (u.Deps == nil) != (v.Deps == nil) {
							nilVsEmpty++
						}
					}
				}
			}
			want = oracleMergeMaps(want, argVersions)
			merged := got.Merge(arg).(*Causal)
			if merged != got && merged != arg {
				vs := merged.versions
				if len(got.versions)+len(arg.versions) <= mergeScratch && cap(vs) != len(vs) {
					t.Fatalf("trial %d step %d: %d siblings in room for %d", trial, step, len(vs), cap(vs))
				}
				if slices.ContainsFunc(vs[len(vs):cap(vs)], func(v Version) bool {
					return v.VC.e != nil || v.Deps.e != nil || v.Value != nil
				}) {
					t.Fatalf("trial %d step %d: the room past %d siblings still holds a replaced version", trial, step, len(vs))
				}
			}
			got = merged
			if !storedJoin(got) {
				t.Fatalf("trial %d step %d: VC() = %v, the versions join to %v", trial, step, got.VC(), joinAll(got.versions))
			}
			if !reflect.DeepEqual(thawVersions(got), want) {
				t.Fatalf("trial %d step %d: merge diverged from union-then-normalize\n got  %s\n want %s",
					trial, step, canon(got), canon(freezeVersions(want)))
			}
			if got.Digest() != oracleDigest(want) || got.MetadataSize() != oracleMetadataSize(want) ||
				got.ByteSize() != freezeVersions(want).ByteSize() || !bytes.Equal(got.DisplayValue(), want[0].Value) {
				t.Fatalf("trial %d step %d: derived values differ for equal versions", trial, step)
			}
			if deps, _ := walkDeps(got); !reflect.DeepEqual(thaw(got.VC()), oracleVC(want)) || !reflect.DeepEqual(deps, oracleDepsUnion(want)) {
				t.Fatalf("trial %d step %d: VC()/Deps() differ from the map form's", trial, step)
			}
			if canon(arg) != argBefore {
				t.Fatalf("trial %d step %d: Merge changed its argument\n was %s\n now %s", trial, step, argBefore, canon(arg))
			}
		}
	}
	// The histories must reach every branch of insert, or agreeing with
	// the oracle says little.
	for name, n := range map[string]int{
		"incoming version dominated":                 dropped,
		"incoming version dominates":                 replaced,
		"equal clock and payload":                    repeats,
		"equal clock and payload, deps to union":     repeatsNewDeps,
		"equal clock and payload, nil vs empty deps": nilVsEmpty,
		"equal clock, different payload":             equalClockSiblings,
		"more versions than the stack scratch":       pastScratch,
	} {
		if n == 0 {
			t.Errorf("no history had the case %q", name)
		}
	}
	if widest < 8 {
		t.Errorf("widest capsule had %d siblings, want at least 8", widest)
	}
}

// TestStoredClockIsTheJoin holds the clock a capsule's constructor
// stores to the join VC once computed on every read (joinAll of the
// versions), in the cases a merge history may not reach: zero entries in
// a clock literal, equal clocks under different payloads, and a merge in
// which one side absorbs the other. TestMergeMatchesUnionNormalize and
// TestValueMergeWritesNeitherSide check every merge of their histories
// the same way; storing either side's clock instead of the join fails
// all three.
func TestStoredClockIsTheJoin(t *testing.T) {
	zeros := NewCausal(VectorClock{"w1": 0, "w2": 1}, nil, []byte("a"))
	allZero := NewCausal(VectorClock{"w1": 0}, nil, []byte("z"))
	older := NewCausal(VectorClock{"w1": 1, "w2": 1}, nil, []byte("old"))
	newer := NewCausal(VectorClock{"w1": 2, "w2": 1}, nil, []byte("new"))
	for _, c := range []struct {
		name     string
		got      Lattice
		siblings int
		want     VectorClock
	}{
		{"zero entries in a literal", zeros, 1, VectorClock{"w2": 1}},
		{"a literal of zero entries only", allZero, 1, VectorClock{}},
		{"concurrent, zero entries dropped", zeros.Merge(NewCausal(VectorClock{"w1": 0, "w3": 1}, nil, []byte("b"))), 2, VectorClock{"w2": 1, "w3": 1}},
		{"a write absorbs a zero-entry clock", allZero.Merge(older), 1, VectorClock{"w1": 1, "w2": 1}},
		{"equal clocks, different payloads", older.Merge(NewCausal(VectorClock{"w1": 1, "w2": 1}, nil, []byte("sib"))), 2, VectorClock{"w1": 1, "w2": 1}},
		{"the receiver absorbs", newer.Merge(older), 1, VectorClock{"w1": 2, "w2": 1}},
		{"the argument absorbs", older.Merge(newer), 1, VectorClock{"w1": 2, "w2": 1}},
		{"a repeat absorbs, zero entry aside", zeros.Merge(NewCausal(VectorClock{"w2": 1}, nil, []byte("a"))), 1, VectorClock{"w2": 1}},
	} {
		if n := len(c.got.(*Causal).versions); n != c.siblings {
			t.Fatalf("%s: %d siblings, want %d", c.name, n, c.siblings)
		}
		if !storedJoin(c.got) || !reflect.DeepEqual(thaw(c.got.(*Causal).VC()), c.want) {
			t.Errorf("%s: VC() = %v, the versions join to %v, want %v", c.name, c.got.(*Causal).VC(), joinAll(c.got.(*Causal).versions), c.want)
		}
	}
}

// TestCanonicalOrderMatchesString pins the sibling order's first key:
// comparing the frozen clocks' appendCanonical bytes orders them exactly
// as comparing the map form's fmt-rendered strings did, and String is
// still that rendering.
func TestCanonicalOrderMatchesString(t *testing.T) {
	wide, long := VectorClock{}, VectorClock{}
	for i := 0; i < 20; i++ { // past the map form's 16-id stack array
		wide[fmt.Sprintf("t%d", i)] = uint64(i + 1)
	}
	for i := 0; i < 8; i++ { // past a 256-byte buffer
		long[strings.Repeat("x", 40)+fmt.Sprint(i)] = uint64(1) << (8 * i)
	}
	wide2, long2 := wide.Copy(), long.Copy()
	wide2["t19"]++
	long2[strings.Repeat("x", 40)+"7"]--
	clocks := []VectorClock{
		{}, nil,
		{"a": 9}, {"a": 10}, {"a": 100}, {"a": 1 << 63},
		{"t1": 1}, {"t10": 1}, {"t1": 1, "t10": 1}, {"t1": 10}, {"t": 1},
		{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1, "b": 0}, {"ab": 1}, {"a,b": 1}, {"a:1": 1},
		wide, wide2, long, long2,
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 150; i++ {
		vc := VectorClock{}
		for j := rng.Intn(5); j > 0; j-- {
			vc[fmt.Sprintf("t%d", rng.Intn(12))] = uint64(rng.Intn(12))
		}
		clocks = append(clocks, vc)
	}
	sign := func(n int) int { return min(max(n, -1), 1) }
	for _, a := range clocks {
		if got, want := a.Freeze().String(), oracleString(a); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		for _, b := range clocks {
			var abuf, bbuf [256]byte
			got := bytes.Compare(a.Freeze().appendCanonical(abuf[:0]), b.Freeze().appendCanonical(bbuf[:0]))
			if want := strings.Compare(oracleString(a), oracleString(b)); sign(got) != want {
				t.Fatalf("order of %v and %v: bytes.Compare = %d, strings.Compare = %d", a, b, got, want)
			}
		}
	}
}

// TestCausalMergeCloneAllocations is the tripwire for a copy coming back:
// a merge whose join is one side returns that side, and a merge that
// changes the sibling set pays for its capsule, a sibling slice exactly
// as long as the survivors (inside the capsule's allocation for two) and
// the joined clock every later VC() returns, never for copies of clocks
// or dependency sets.
func TestCausalMergeCloneAllocations(t *testing.T) {
	deps := map[string]VectorClock{"dep": {"w9": 3}, "dep2": {"w9": 1, "w8": 2}}
	older := NewCausal(VectorClock{"w1": 1, "w2": 1}, deps, []byte("old"))
	newer := NewCausal(VectorClock{"w1": 2, "w2": 1}, deps, []byte("new"))

	var got Lattice
	if n := testing.AllocsPerRun(100, func() { got = newer.Merge(older) }); n != 0 || got != newer {
		t.Errorf("1x1 merge of a dominated version allocates %.0f times (receiver returned: %v), want 0 and the receiver", n, got == newer)
	}
	if n := testing.AllocsPerRun(100, func() { got = older.Merge(newer) }); n != 0 || got != newer {
		t.Errorf("1x1 merge of a dominating version allocates %.0f times (argument returned: %v), want 0 and the argument", n, got == newer)
	}

	other := NewCausal(VectorClock{"w1": 1, "w3": 1}, deps, []byte("other"))
	if n := testing.AllocsPerRun(100, func() { got = newer.Merge(other) }); n != 2 {
		t.Errorf("1x1 merge of a concurrent version allocates %.0f times, want 2 (capsule with its two siblings, joined clock)", n)
	}
	if vs := got.(*Causal).versions; len(vs) != 2 || cap(vs) != 2 {
		t.Errorf("1x1 concurrent merge holds %d siblings in room for %d, want 2 in 2", len(vs), cap(vs))
	}

	five := &Causal{}
	for i := 0; i < 5; i++ {
		five = five.Merge(NewCausal(VectorClock{fmt.Sprintf("w%d", i): 1}, deps, []byte{byte(i)})).(*Causal)
	}
	before := canon(five)
	sixth := NewCausal(VectorClock{"w25": 1}, deps, []byte("six")) // sorts into the middle
	if n := testing.AllocsPerRun(100, func() { got = five.Merge(sixth) }); n != 3 {
		t.Errorf("merging one concurrent sibling into five allocates %.0f times, want 3 (capsule, sibling slice, joined clock)", n)
	}
	if vs := got.(*Causal).versions; len(vs) != 6 || cap(vs) != 6 {
		t.Errorf("merging one concurrent sibling into five holds %d siblings in room for %d, want 6 in 6", len(vs), cap(vs))
	}
	if want := oracleMerge(five, sixth); canon(got) != canon(want) || string(got.(*Causal).versions[2].Value) != "six" {
		t.Fatalf("sibling merge left %s, want %s", canon(got), canon(want))
	}
	if canon(five) != before {
		t.Fatalf("sibling merge changed its receiver to %s", canon(five))
	}

	// Past mergeScratch versions the capsule keeps the merge's heap slice.
	others := &Causal{}
	for i := 5; i < 10; i++ {
		others = others.Merge(NewCausal(VectorClock{fmt.Sprintf("w%d", i): 1}, deps, []byte{byte(i)})).(*Causal)
	}
	if n := testing.AllocsPerRun(100, func() { got = five.Merge(others) }); n != 3 {
		t.Errorf("merging five concurrent siblings into five allocates %.0f times, want 3 (capsule, sibling slice, joined clock)", n)
	}
	if want := oracleMerge(five, others); canon(got) != canon(want) {
		t.Fatalf("ten-sibling merge left %s, want %s", canon(got), canon(want))
	}
}

// TestSetMergeAllocations is the tripwire for a Set copy coming back: a
// merge whose join is one side allocates nothing and returns that side,
// and a union pays for one slice and the set around it.
func TestSetMergeAllocations(t *testing.T) {
	big, small, other := NewSet("a", "b", "c", "d"), NewSet("b", "d"), NewSet("c", "e")
	var got Lattice
	if n := testing.AllocsPerRun(100, func() { got = big.Merge(small) }); n != 0 || got != big {
		t.Errorf("merging a subset allocates %.0f times (receiver returned: %v), want 0 and the receiver", n, got == big)
	}
	if n := testing.AllocsPerRun(100, func() { got = small.Merge(big) }); n != 0 || got != big {
		t.Errorf("merging a superset allocates %.0f times (argument returned: %v), want 0 and the argument", n, got == big)
	}
	if n := testing.AllocsPerRun(100, func() { got = small.Merge(other) }); n != 2 {
		t.Errorf("a union allocates %.0f times, want 2 (slice, set)", n)
	}
	if want := []string{"b", "c", "d", "e"}; !slices.Equal(got.(*Set).Elems(), want) {
		t.Fatalf("union = %v, want %v", got.(*Set).Elems(), want)
	}
}

// TestValueMergeWritesNeitherSide holds every lattice to value semantics
// over seeded histories: a merge leaves both of its arguments exactly as
// they were, returns the receiver itself when the join is the receiver,
// and otherwise returns the argument itself when the join is the argument
// (it dominates every sibling, or repeats some and dominates the rest).
// The causal histories are histGen's, so they meet equal clocks with
// different payloads, repeats that add dependencies, and nil against
// empty dependency maps; the LWW ones draw colliding timestamps, some
// with different payloads; the sets are drawn from five elements, so
// subsets, supersets and equal sets are common.
func TestValueMergeWritesNeitherSide(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cases := map[string]int{}
	mergeOnce := func(x, y Lattice, joinIsX, joinIsY bool) {
		t.Helper()
		xBefore, yBefore := canon(x), canon(y)
		got := x.Merge(y)
		if _, causal := got.(*Causal); causal && !storedJoin(got) {
			t.Fatalf("causal merge of %s and %s stored the clock %v", xBefore, yBefore, got.(*Causal).VC())
		}
		if canon(x) != xBefore || canon(y) != yBefore {
			t.Fatalf("%s merge wrote a side\n receiver %s -> %s\n argument %s -> %s",
				x.TypeName(), xBefore, canon(x), yBefore, canon(y))
		}
		switch {
		case joinIsX:
			cases[x.TypeName()+": join is the receiver"]++
			if got != x {
				t.Fatalf("%s merge: the join is the receiver %s, but a different capsule came back", x.TypeName(), xBefore)
			}
		case joinIsY:
			cases[x.TypeName()+": join is the argument"]++
			if got != y {
				t.Fatalf("%s merge: the join is the argument %s, but a different capsule came back", x.TypeName(), yBefore)
			}
		default:
			cases[x.TypeName()+": a new join"]++
		}
	}

	for trial := 0; trial < 100; trial++ {
		g := newHistGen(rng)
		acc := freezeVersions(g.capsule(8))
		for step := 0; step < 6; step++ {
			arg := freezeVersions(g.capsule(8))
			join := oracleMergeMaps(thawVersions(acc), thawVersions(arg))
			joinIsAcc, joinIsArg := reflect.DeepEqual(join, thawVersions(acc)), reflect.DeepEqual(join, thawVersions(arg))
			mergeOnce(acc, arg, joinIsAcc, joinIsArg)
			mergeOnce(arg, acc, joinIsArg, joinIsAcc)
			// An equal capsule: the join is both sides, and the receiver
			// comes back, unless a dependency map is empty but not nil
			// (the union makes it nil, as the oracle's does).
			self := thawVersions(acc)
			same := reflect.DeepEqual(oracleMergeMaps(self, self), self)
			mergeOnce(acc, freezeVersions(self), same, false)
			acc = acc.Merge(arg).(*Causal)
		}
	}

	for i := 0; i < 2000; i++ {
		lww := func() *LWW {
			return NewLWW(Timestamp{Clock: int64(rng.Intn(3)), Node: uint64(rng.Intn(2))}, []byte{byte(rng.Intn(2))})
		}
		x, y := lww(), lww()
		order := cmp.Or(cmp.Compare(x.TS.Clock, y.TS.Clock), cmp.Compare(x.TS.Node, y.TS.Node), bytes.Compare(x.Value, y.Value))
		mergeOnce(x, y, order >= 0, order < 0)
	}

	for i := 0; i < 2000; i++ {
		set := func() (*Set, map[string]bool) {
			elems, m := make([]string, rng.Intn(4)), map[string]bool{}
			for i := range elems {
				elems[i] = string(rune('a' + rng.Intn(5)))
				m[elems[i]] = true
			}
			return NewSet(elems...), m
		}
		x, xm := set()
		y, ym := set()
		holds := func(a, b map[string]bool) bool {
			for e := range b {
				if !a[e] {
					return false
				}
			}
			return true
		}
		mergeOnce(x, y, holds(xm, ym), holds(ym, xm))
	}

	for _, name := range []string{
		"causal: join is the receiver", "causal: join is the argument", "causal: a new join",
		"lww: join is the receiver", "lww: join is the argument",
		"set: join is the receiver", "set: join is the argument", "set: a new join",
	} {
		if cases[name] == 0 {
			t.Errorf("no merge had the case %q", name)
		}
	}
}
