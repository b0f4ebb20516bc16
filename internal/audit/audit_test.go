package audit

import (
	"testing"

	"cloudburst/internal/executor"
)

// tr builds a recorder and replays a scripted trace.
type tr struct{ r *Recorder }

func newTr() *tr { return &tr{r: NewRecorder()} }

func (t *tr) read(req, fn, key, writeID string) {
	t.r.OnRead(executor.TraceEvent{ReqID: req, Function: fn, Key: key, WriteID: writeID})
}

func (t *tr) write(req, fn, key, writeID string) {
	t.r.OnWrite(executor.TraceEvent{ReqID: req, Function: fn, Key: key, WriteID: writeID})
}

func TestCleanTraceHasNoAnomalies(t *testing.T) {
	x := newTr()
	// Serial sessions: write then read back the same version.
	x.write("r1", "f", "k", "w1")
	x.read("r1", "f", "k", "w1")
	x.read("r2", "f", "k", "w1")
	x.write("r2", "g", "k", "w2")
	x.read("r3", "f", "k", "w2")
	rep := x.r.Analyze()
	if rep.SK != 0 || rep.MK != 0 || rep.DSC != 0 || rep.DSRR != 0 {
		t.Fatalf("clean trace flagged: %+v", rep)
	}
}

func TestSKDetectsConcurrentFrontier(t *testing.T) {
	x := newTr()
	// Two sessions write k without seeing each other: concurrent.
	x.write("r1", "f", "k", "w1")
	x.write("r2", "f", "k", "w2")
	// A read while the frontier holds both concurrent versions.
	x.read("r3", "f", "k", "w2")
	rep := x.r.Analyze()
	if rep.SK != 1 {
		t.Fatalf("SK = %d, want 1", rep.SK)
	}
	// A write that read both (seeing w1 and w2) dominates the frontier;
	// later reads are clean.
	x.read("r4", "f", "k", "w1")
	x.read("r4", "f", "k", "w2") // r4 saw both (two replicas)
	x.write("r4", "f", "k", "w3")
	x.read("r5", "f", "k", "w3")
	rep = x.r.Analyze()
	// The two r4 reads happened while the frontier was still split.
	if rep.SK != 3 {
		t.Fatalf("SK after merge = %d, want 3", rep.SK)
	}
}

func TestSequentialWritesDoNotFlagSK(t *testing.T) {
	x := newTr()
	x.write("r1", "f", "k", "w1")
	x.read("r2", "f", "k", "w1")  // r2 sees w1...
	x.write("r2", "f", "k", "w2") // ...then writes w2 (depends on w1)
	x.read("r3", "f", "k", "w2")
	rep := x.r.Analyze()
	if rep.SK != 0 {
		t.Fatalf("causally ordered writes flagged SK: %d", rep.SK)
	}
}

func TestMKDetectsNonCausalCut(t *testing.T) {
	x := newTr()
	// Session s1: writes a1, reads it, writes b1 (so b1 depends on a1's
	// *successor* chain): build a → newer-a → b.
	x.write("s1", "f", "a", "wa1")
	x.read("s2", "f", "a", "wa1")
	x.write("s2", "f", "a", "wa2") // wa2 depends on wa1
	x.read("s3", "f", "a", "wa2")
	x.write("s3", "f", "b", "wb1") // wb1 depends on wa2
	// Victim function reads stale a (wa1) and fresh b (wb1) in ONE
	// function: wb1 → depends on wa2 which is newer than wa1. Not a
	// causal cut.
	x.read("v1", "g", "a", "wa1")
	x.read("v1", "g", "b", "wb1")
	rep := x.r.Analyze()
	if rep.MKExtra != 1 {
		t.Fatalf("MKExtra = %d, want 1", rep.MKExtra)
	}
	if rep.DSCExtra != 0 {
		t.Fatalf("DSCExtra = %d, want 0 (already flagged at MK)", rep.DSCExtra)
	}
}

func TestDSCDetectsCrossFunctionViolationOnly(t *testing.T) {
	x := newTr()
	x.write("s1", "f", "a", "wa1")
	x.read("s2", "f", "a", "wa1")
	x.write("s2", "f", "a", "wa2")
	x.read("s3", "f", "a", "wa2")
	x.write("s3", "f", "b", "wb1")
	// Victim DAG: function g reads stale a, function h reads fresh b —
	// each single-function read set is fine, the cross-function union
	// is not (the Figure 4 scenario).
	x.read("v1", "g", "a", "wa1")
	x.read("v1", "h", "b", "wb1")
	rep := x.r.Analyze()
	if rep.MKExtra != 0 {
		t.Fatalf("MKExtra = %d, want 0", rep.MKExtra)
	}
	if rep.DSCExtra != 1 {
		t.Fatalf("DSCExtra = %d, want 1", rep.DSCExtra)
	}
	if rep.DSC != rep.SK+rep.MKExtra+rep.DSCExtra {
		t.Fatal("DSC accrual arithmetic wrong")
	}
}

func TestPreloadedVersionCountsAsOldest(t *testing.T) {
	x := newTr()
	// b's write depends on a traced version of a; the victim read a's
	// preloaded value ("") — older than anything traced.
	x.write("s1", "f", "a", "wa1")
	x.read("s2", "f", "a", "wa1")
	x.write("s2", "f", "b", "wb1")
	x.read("v1", "g", "a", "") // preloaded
	x.read("v1", "g", "b", "wb1")
	rep := x.r.Analyze()
	if rep.MKExtra != 1 {
		t.Fatalf("MKExtra = %d, want 1", rep.MKExtra)
	}
}

func TestRRDetectsVersionChangeWithinDAG(t *testing.T) {
	x := newTr()
	x.write("w1", "f", "k", "v1")
	x.read("r1", "f", "k", "v1")
	x.write("w2", "f", "k", "v2") // concurrent external writer
	x.read("r1", "g", "k", "v2")  // same DAG reads k again, sees v2
	rep := x.r.Analyze()
	if rep.DSRR != 1 {
		t.Fatalf("DSRR = %d, want 1", rep.DSRR)
	}
}

func TestRRAllowsOwnWrites(t *testing.T) {
	x := newTr()
	x.write("w1", "f", "k", "v1")
	x.read("r1", "f", "k", "v1")
	x.write("r1", "f", "k", "v2") // the DAG's own update
	x.read("r1", "g", "k", "v2")
	rep := x.r.Analyze()
	if rep.DSRR != 0 {
		t.Fatalf("own write flagged DSRR: %d", rep.DSRR)
	}
}

func TestRRRepeatSameVersionClean(t *testing.T) {
	x := newTr()
	x.write("w1", "f", "k", "v1")
	x.read("r1", "f", "k", "v1")
	x.read("r1", "g", "k", "v1")
	x.read("r1", "h", "k", "v1")
	if rep := x.r.Analyze(); rep.DSRR != 0 {
		t.Fatalf("DSRR = %d", rep.DSRR)
	}
}

func TestAncestorDepthBound(t *testing.T) {
	x := newTr()
	// Chain of 10 dependent writes on distinct keys.
	prev := ""
	for i := 0; i < 10; i++ {
		key := string(rune('a' + i))
		id := "w" + key
		if prev != "" {
			x.read("s"+key, "f", string(rune('a'+i-1)), prev)
		}
		x.write("s"+key, "f", key, id)
		prev = id
	}
	w := x.r.writes["wj"]
	anc := x.r.ancestors(w)
	if len(anc) != x.r.MaxDepth {
		t.Fatalf("bounded ancestors = %d, want %d", len(anc), x.r.MaxDepth)
	}
	x.r.MaxDepth = 100
	if anc = x.r.ancestors(w); len(anc) != 9 {
		t.Fatalf("full ancestors = %d, want 9", len(anc))
	}
}

func TestReportBookkeeping(t *testing.T) {
	x := newTr()
	x.write("r1", "f", "k", "w1")
	x.read("r1", "f", "k", "w1")
	x.read("r2", "f", "k", "w1")
	rep := x.r.Analyze()
	if rep.Reads != 2 || rep.Writes != 1 || rep.Executions != 2 {
		t.Fatalf("bookkeeping: %+v", rep)
	}
	reads, writes := x.r.Counts()
	if reads != 2 || writes != 1 {
		t.Fatal("Counts mismatch")
	}
}
