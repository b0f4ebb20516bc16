package core

import (
	"testing"

	"cloudburst/internal/lattice"
)

func TestModeParseRoundTrip(t *testing.T) {
	for _, m := range []Mode{LWW, DSRR, SK, MK, DSC} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Error("unknown mode accepted")
	}
	if m, _ := ParseMode("causal"); m != DSC {
		t.Error("causal alias broken")
	}
	if m, _ := ParseMode("rr"); m != DSRR {
		t.Error("rr alias broken")
	}
}

func TestModeCausal(t *testing.T) {
	for m, want := range map[Mode]bool{LWW: false, DSRR: false, SK: true, MK: true, DSC: true} {
		if m.Causal() != want {
			t.Errorf("%v.Causal() = %v", m, m.Causal())
		}
	}
}

func TestInvocationIDs(t *testing.T) {
	id := MakeInvocationID("exec-vm1-2", 17)
	thread, ok := SplitInvocationID(id)
	if !ok || thread != "exec-vm1-2" {
		t.Fatalf("split %q = %q, %v", id, thread, ok)
	}
	if _, ok := SplitInvocationID("no-separator"); ok {
		t.Fatal("malformed id accepted")
	}
	if _, ok := SplitInvocationID("#leading"); ok {
		t.Fatal("empty thread accepted")
	}
}

// TestSessionMetaCloneIsDeep: a clone's maps are its own — entries
// added, replaced or deleted on one side never show on the other — while
// the immutable clocks inside are the same values, shared by design.
func TestSessionMetaCloneIsDeep(t *testing.T) {
	m := NewSessionMeta()
	m.ReadSet["k"] = VersionRef{Cache: "c1", VC: lattice.VectorClock{"e": 1}.Freeze()}
	m.ReadSet["j"] = VersionRef{Cache: "c1", VC: lattice.VectorClock{"e": 4}.Freeze()}
	m.Deps["d"] = VersionRef{Cache: "c2", VC: lattice.VectorClock{"f": 2}.Freeze()}
	m.Caches["c1"] = true
	c := m.Clone()
	for k, v := range m.ReadSet {
		if c.ReadSet[k].VC.String() != v.VC.String() || c.ReadSet[k].VC.Compare(v.VC) != lattice.Equal {
			t.Fatalf("clone's clock for %q = %v, want %v", k, c.ReadSet[k].VC, v.VC)
		}
	}
	if c.Deps["d"].VC.String() != "{f:2}" {
		t.Fatalf("clone's dependency clock = %v", c.Deps["d"].VC)
	}
	c.ReadSet["k2"] = VersionRef{}
	c.ReadSet["k"] = VersionRef{Cache: "c3", VC: c.ReadSet["k"].VC.Tick("e")}
	delete(c.ReadSet, "j")
	c.Deps["d"] = VersionRef{Cache: "c4"}
	c.Caches["c9"] = true
	if len(m.ReadSet) != 2 || m.ReadSet["k"].Cache != "c1" || m.ReadSet["k"].VC.String() != "{e:1}" ||
		m.Deps["d"].Cache != "c2" || m.Caches["c9"] {
		t.Fatal("clone aliases original")
	}
	m.Deps["d2"] = VersionRef{}
	if _, ok := c.Deps["d2"]; ok {
		t.Fatal("original aliases clone")
	}
}

func TestSessionMetaMerge(t *testing.T) {
	a := NewSessionMeta()
	a.ReadSet["k"] = VersionRef{Cache: "c1", TS: lattice.Timestamp{Clock: 1}}
	a.Deps["d"] = VersionRef{VC: lattice.VectorClock{"e": 1}.Freeze()}
	a.Caches["c1"] = true
	b := NewSessionMeta()
	b.ReadSet["k"] = VersionRef{Cache: "c2", TS: lattice.Timestamp{Clock: 9}} // loses: first wins
	b.ReadSet["j"] = VersionRef{Cache: "c2"}
	b.Deps["d"] = VersionRef{VC: lattice.VectorClock{"e": 5}.Freeze()} // wins: newer
	b.Caches["c2"] = true
	a.Merge(b)
	if a.ReadSet["k"].Cache != "c1" {
		t.Error("read-set merge did not keep first version")
	}
	if a.ReadSet["j"].Cache != "c2" {
		t.Error("new read-set entry missing")
	}
	if a.Deps["d"].VC.String() != "{e:5}" {
		t.Error("deps merge did not keep newest clock")
	}
	if !a.Caches["c1"] || !a.Caches["c2"] {
		t.Error("caches union missing entries")
	}
}

func TestSessionMetaSize(t *testing.T) {
	// The modes without a distributed session carry the zero value: it must
	// cost what empty metadata costs on the wire, and clone without maps.
	var zero SessionMeta
	if zero.Size() != 0 {
		t.Fatalf("zero meta size = %d", zero.Size())
	}
	if c := zero.Clone(); c.ReadSet != nil || c.Deps != nil || c.Caches != nil {
		t.Fatalf("zero meta cloned to %+v, want the zero value", c)
	}
	m := NewSessionMeta()
	if m.Size() != 0 {
		t.Fatalf("empty meta size = %d", m.Size())
	}
	m.ReadSet["key"] = VersionRef{Cache: "cache-vm1", VC: lattice.VectorClock{"writer": 3}.Freeze()}
	if m.Size() <= 0 {
		t.Fatal("size not positive after adding entries")
	}
}

func TestWellKnownKeys(t *testing.T) {
	if FuncKey("f") != "sys/funcs/f" || DAGKey("d") != "sys/dags/d" {
		t.Error("metadata keys changed")
	}
	if InboxKey("exec-1#5") != "sys/inbox/exec-1#5" {
		t.Error("inbox key changed")
	}
	if ExecMetricsKey("t") == CacheKeysKey("t") {
		t.Error("metric namespaces collide")
	}
}

func TestResultOK(t *testing.T) {
	if !(Result{}).OK() {
		t.Error("empty result not OK")
	}
	if (Result{Err: "x"}).OK() {
		t.Error("error result OK")
	}
}

func TestArgIsRef(t *testing.T) {
	if !(Arg{Ref: "k"}).IsRef() || (Arg{Val: []byte("v")}).IsRef() {
		t.Error("IsRef wrong")
	}
}
