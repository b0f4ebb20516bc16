package core

import (
	"slices"
	"strconv"
	"testing"

	"cloudburst/internal/codec"
	"cloudburst/internal/lattice"
)

// mapKV is a Reader over a map that counts its calls.
type mapKV struct {
	m               map[string]lattice.Lattice
	gets, multigets int
}

func (f *mapKV) Get(key string) (lattice.Lattice, bool, error) {
	f.gets++
	l, ok := f.m[key]
	return l, ok, nil
}

func (f *mapKV) MultiGet(keys []string, found ...lattice.Lattice) ([]string, error) {
	f.multigets++
	for i, k := range keys {
		if l, ok := f.m[k]; ok {
			found[i] = l
		}
	}
	return nil, nil
}

func capsule(ts int64, v any) *lattice.LWW {
	return lattice.NewLWW(lattice.Timestamp{Clock: ts, Node: 1}, codec.MustEncode(v))
}

// TestRegistryKeys holds Registry to its contract: members sorted; the
// same slice, with no allocation, while the stored Set is unchanged; a
// new list when it changes; no listing read while the list equals a
// non-empty expectation; nil when the listing is missing or not a Set.
func TestRegistryKeys(t *testing.T) {
	set := lattice.NewSet("c", "a", "b")
	kv := &mapKV{m: map[string]lattice.Lattice{"list": set, "notaset": capsule(1, "x")}}
	r := Registry{ListKey: "list"}

	first := r.Keys(kv, nil)
	if !slices.Equal(first, []string{"a", "b", "c"}) || kv.gets != 1 {
		t.Fatalf("keys %v after %d gets, want [a b c] after 1", first, kv.gets)
	}
	if again := r.Keys(kv, nil); &again[0] != &first[0] || kv.gets != 2 {
		t.Fatalf("unchanged membership: new slice %v or no read (%d gets)", again, kv.gets)
	}
	if n := testing.AllocsPerRun(100, func() { r.Keys(kv, nil) }); n != 0 {
		t.Fatalf("unchanged membership allocates %v times, want 0", n)
	}

	gets := kv.gets
	if got := r.Keys(kv, []string{"a", "b", "c"}); &got[0] != &first[0] || kv.gets != gets {
		t.Fatalf("matching expectation: %v with %d listing reads, want the list with none", got, kv.gets-gets)
	}
	kv.m["list"] = set.Merge(lattice.NewSet("d"))
	if got := r.Keys(kv, []string{"a", "b", "c"}); &got[0] != &first[0] || kv.gets != gets {
		t.Fatal("a matching expectation must skip the read even when Anna has moved on")
	}
	if got := r.Keys(kv, []string{"a", "b", "c", "d"}); !slices.Equal(got, []string{"a", "b", "c", "d"}) || kv.gets != gets+1 {
		t.Fatalf("mismatched expectation: %v after %d reads, want [a b c d] after 1", got, kv.gets-gets)
	}
	kv.m["list"] = lattice.NewSet("a", "b", "c", "e") // same size, one member swapped
	if got := r.Keys(kv, nil); !slices.Equal(got, []string{"a", "b", "c", "e"}) {
		t.Fatalf("swapped member: %v, want [a b c e]", got)
	}

	for _, key := range []string{"missing", "notaset"} {
		r := Registry{ListKey: key}
		if got := r.Keys(kv, nil); got != nil {
			t.Errorf("listing %q: %v, want nil", key, got)
		}
	}
}

// TestFetchAllSkipsWhatIsNotAT checks that one grouped read returns, in
// key order, exactly the payloads that decode to the asked type: a
// missing key, a non-LWW capsule, an undecodable payload and a payload
// of another type are all skipped.
func TestFetchAllSkipsWhatIsNotAT(t *testing.T) {
	kv := &mapKV{m: map[string]lattice.Lattice{
		"a/ok":      capsule(1, CacheMetrics{VM: "vm0", Keys: []string{"k"}}),
		"b/set":     lattice.NewSet("x"),
		"c/garbage": lattice.NewLWW(lattice.Timestamp{Clock: 1}, []byte{0xff, 0xfe}),
		"d/other":   capsule(1, ExecutorMetrics{Thread: "t"}),
		"e/ok":      capsule(2, CacheMetrics{VM: "vm1"}),
	}}
	keys := []string{"a/ok", "b/set", "c/garbage", "d/other", "missing", "e/ok"}
	got := FetchAll[CacheMetrics](kv, NewDecodeCache(), keys)
	if len(got) != 2 || got[0].VM != "vm0" || got[1].VM != "vm1" || kv.multigets != 1 || kv.gets != 0 {
		t.Fatalf("FetchAll = %+v after %d multi-gets and %d gets, want vm0, vm1 after one multi-get", got, kv.multigets, kv.gets)
	}
	if got := FetchAll[CacheMetrics](kv, NewDecodeCache(), nil); got != nil {
		t.Fatalf("FetchAll of no keys = %v", got)
	}
}

// TestFetchDecodesOncePerVersion checks that Fetch decodes a capsule
// version once through the cache and shares the value, and that a new
// version or a wrong type is read afresh.
func TestFetchDecodesOncePerVersion(t *testing.T) {
	kv := &mapKV{m: map[string]lattice.Lattice{"seed": capsule(1, WarmSeed{VM: "vm0", Keys: []string{"a", "b"}})}}
	c := NewDecodeCache()
	one, ok1 := Fetch[WarmSeed](kv, c, "seed")
	two, ok2 := Fetch[WarmSeed](kv, c, "seed")
	if !ok1 || !ok2 || one.VM != "vm0" || &one.Keys[0] != &two.Keys[0] {
		t.Fatalf("same version decoded twice or not at all: %+v %+v", one, two)
	}
	kv.m["seed"] = capsule(2, WarmSeed{VM: "vm1"})
	if three, ok := Fetch[WarmSeed](kv, c, "seed"); !ok || three.VM != "vm1" {
		t.Fatalf("new version not read: %+v", three)
	}
	if _, ok := Fetch[CacheMetrics](kv, c, "seed"); ok {
		t.Fatal("a WarmSeed fetched as CacheMetrics")
	}
	if _, ok := Fetch[WarmSeed](kv, c, "missing"); ok {
		t.Fatal("a missing key fetched")
	}
}

// TestDecodeCacheStaysBounded adds more distinct keys than decodeMax:
// the entry count never exceeds it, and a cache that reset still
// decodes and holds what it reads next.
func TestDecodeCacheStaysBounded(t *testing.T) {
	c := NewDecodeCache()
	payload := codec.MustEncode("v")
	ts := lattice.Timestamp{Clock: 1, Node: 1}
	for i := range decodeMax + 100 {
		key := "k" + strconv.Itoa(i)
		if v, err := c.DecodeVersion(key, ts, 0, payload); err != nil || v != "v" {
			t.Fatalf("%s decoded to %v, %v", key, v, err)
		}
		if len(c.m) > decodeMax {
			t.Fatalf("after %d keys the cache holds %d entries, over %d", i+1, len(c.m), decodeMax)
		}
		if _, ok := c.m[key]; !ok {
			t.Fatalf("%s was not kept", key)
		}
	}
	if len(c.m) != 100 {
		t.Fatalf("%d entries after one reset, want the 100 keys read since", len(c.m))
	}
}
