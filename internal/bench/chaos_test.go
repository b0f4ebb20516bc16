package bench

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	cb "cloudburst"
)

// TestChaosMatrix is the chaos-plane smoke: every workload × every
// consistency mode, each under its own randomized-but-seeded fault plan
// (VM crash + warm restart, transient partitions, flaky/slow/duplicating
// links, Anna replica loss, cache snapshot drops), plus three
// deterministic scenario cells: a rolling upgrade, a rack failure, and
// an open-loop traffic cell (the internal/traffic pool against a
// 3-scheduler group and the monitor, with a control-plane split-brain
// blinding the monitor from a VM mid-window).
// Asserted per cell: liveness after heal, no lost requests, zero ghost
// registry keys left by dead VM generations, and audit detectors that
// run cleanly over the traced chaotic execution. CI runs this as a
// required job.
func TestChaosMatrix(t *testing.T) {
	r := RunChaosMatrix(ChaosQuick())
	t.Log(r.Print())
	if len(r.Cells) != 21 {
		t.Fatalf("cells = %d, want 3 workloads × 5 modes + 3 scenario cells + 3 txn cells", len(r.Cells))
	}
	var sawRolling, sawRack, sawSplit, sawCrashAt bool
	for _, c := range r.Cells {
		name := c.Workload + "/" + c.Mode
		if c.Issued == 0 || c.OK == 0 {
			t.Errorf("%s: no successful requests (issued %d, ok %d)", name, c.Issued, c.OK)
		}
		if c.Lost != 0 {
			t.Errorf("%s: %d requests lost (no terminal outcome within bounded retries)", name, c.Lost)
		}
		if !c.ProbesOK {
			t.Errorf("%s: post-heal liveness probes failed", name)
		}
		if c.FaultCount == 0 {
			t.Errorf("%s: fault plan injected nothing", name)
		}
		if c.GhostKeys != 0 {
			t.Errorf("%s: %d dead-generation keys left in the Anna registries", name, c.GhostKeys)
		}
		if c.Reads == 0 {
			t.Errorf("%s: audit trace empty (reads %d, writes %d)", name, c.Reads, c.Writes)
		}
		// The table2 detectors must produce a sane report on a chaotic
		// trace — non-negative counts over a non-empty execution set.
		a := c.Anomalies
		if a.SK < 0 || a.MK < 0 || a.DSC < 0 || a.DSRR < 0 {
			t.Errorf("%s: negative anomaly counts: %+v", name, a)
		}
		// The transactional cells additionally assert crash-safe
		// atomicity: no money lost or minted through the 2PC point-cut
		// crash, nothing left in doubt on the participants, and at least
		// one transfer actually committed through the protocol.
		if c.BankWant > 0 {
			if c.BankSum != c.BankWant {
				t.Errorf("%s: balance sum %d, want %d — atomicity broken", name, c.BankSum, c.BankWant)
			}
			if c.InDoubt != 0 {
				t.Errorf("%s: %d prepared txns left in doubt after heal", name, c.InDoubt)
			}
			if c.TxnCommits == 0 {
				t.Errorf("%s: no transfer committed through 2PC — cell proved nothing", name)
			}
			// Stronger than the sum: each account holds exactly what the
			// transfers the client saw succeed, probes included, leave it.
			if c.ledger != nil {
				t.Errorf("%s: bank ledger: %v", name, c.ledger)
			}
		}
		for _, f := range c.Faults {
			if strings.Contains(f, "rolling restart") {
				sawRolling = true
			}
			if strings.Contains(f, "rack failure") {
				sawRack = true
			}
			if strings.Contains(f, "split-brain") {
				sawSplit = true
			}
			if strings.Contains(f, "crash-at txn/") {
				sawCrashAt = true
			}
		}
	}
	if !sawRolling || !sawRack || !sawSplit || !sawCrashAt {
		t.Errorf("scenario cells missing from matrix: rolling=%v rack=%v split-brain=%v crash-at=%v",
			sawRolling, sawRack, sawSplit, sawCrashAt)
	}
}

// TestChaosMatrixDeterministic pins the randomized plans: the same seed
// must produce the same fault schedule (and so the same simulation).
func TestChaosMatrixDeterministic(t *testing.T) {
	cfg := ChaosQuick()
	cfg.Workloads = []string{"predserve"}
	cfg.Modes = AllModes[:1]
	cfg.Requests = 3
	cfg.Lifecycle = false
	cfg.Txn = false
	a := RunChaosMatrix(cfg)
	b := RunChaosMatrix(cfg)
	fa, fb := a.Cells[0].Faults, b.Cells[0].Faults
	if len(fa) != len(fb) {
		t.Fatalf("timelines differ in length: %v vs %v", fa, fb)
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("timeline diverged at %d: %q vs %q", i, fa[i], fb[i])
		}
	}
	if a.Cells[0].OK != b.Cells[0].OK || a.Cells[0].Failed != b.Cells[0].Failed {
		t.Fatalf("outcomes diverged: %+v vs %+v", a.Cells[0], b.Cells[0])
	}
}

// TestBankLedgerCatchesDoubleTransfer is the ledger check's positive
// control: on a healthy Transactional cluster the check passes after a
// few transfers the driver recorded, and fails, naming the account, once
// a transfer the ledger saw once is applied twice, or once a transfer's
// outcome went unseen.
func TestBankLedgerCatchesDoubleTransfer(t *testing.T) {
	cfg := cb.DefaultConfig()
	cfg.Mode = cb.Transactional
	cfg.VMs = 1
	c := cb.NewCluster(cfg)
	defer c.Close()
	driver, l := registerChaosWorkload(c, "bank", 1)
	c.Run(func(cl *cb.Client) {
		cl.Timeout = time.Minute
		rng := rand.New(rand.NewSource(1))
		for range 4 {
			if err := driver(cl, rng); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := l.check(c); err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	c.Run(func(cl *cb.Client) {
		for range 2 { // seen once, applied twice
			if err := l.Transfer(cl, 0, 1, 3, true); err != nil {
				t.Fatal(err)
			}
		}
	})
	l.want[0], l.want[1] = l.want[0]-3, l.want[1]+3
	if err := l.check(c); err == nil || !strings.Contains(err.Error(), "account 0") {
		t.Fatalf("a transfer applied twice: check = %v, want account 0 named", err)
	}
	l.unseen = 1
	if err := l.check(c); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("an unseen transfer: check = %v, want a timed-out error", err)
	}
}
