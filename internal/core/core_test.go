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

func TestSessionMetaSize(t *testing.T) {
	// The modes without a distributed session carry the zero value: it must
	// cost what empty metadata costs on the wire.
	var zero SessionMeta
	if zero.Size() != 0 {
		t.Fatalf("zero meta size = %d", zero.Size())
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
