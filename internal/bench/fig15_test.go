package bench

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	cb "cloudburst"
	"cloudburst/internal/fault"
	"cloudburst/internal/workload"
)

// TestBankTornUnderLWW is the motivating anomaly: under plain LWW a
// CrashAt between a transfer's debit and credit strands money — the
// balance-sum invariant breaks. (The matching positive case — the same
// crash under Transactional mode with an intact sum — is asserted by
// the chaos matrix's txn cells.)
func TestBankTornUnderLWW(t *testing.T) {
	ccfg := cb.DefaultConfig()
	ccfg.Seed = 71
	ccfg.Mode = cb.LWW
	ccfg.VMs = 3
	ccfg.AnnaNodes = 3
	ccfg.Replication = 2
	ccfg.VMSpinUp = 6 * time.Second
	ccfg.StaleAfter = 4 * time.Second
	c := cb.NewCluster(ccfg)
	defer c.Close()
	in := c.Internal()

	b, err := workload.RegisterBank(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	b.Preload(c)
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second) })

	// Arm immediately: the transfers are fast, and the trap must be set
	// before the first one reaches its mid-transfer point.
	inj := fault.NewInjector(in)
	plan := fault.NewPlan("torn").At(time.Millisecond,
		fault.CrashAt{Hook: workload.BankMidTransfer, HealAfter: 8 * time.Second, Warm: true})
	c.Run(func(cl *cb.Client) {
		inj.Start(plan)
		cl.Sleep(time.Second) // let the arm action land before load starts
	})

	c.RunN(3, func(i int, cl *cb.Client) {
		cl.Timeout = 15 * time.Second
		rng := rand.New(rand.NewSource(500 + int64(i)))
		for r := 0; r < 5; r++ {
			from := rng.Intn(b.Accounts)
			to := rng.Intn(b.Accounts - 1)
			if to >= from {
				to++
			}
			// Errors are expected around the crash; the invariant is the
			// point, not per-request success.
			_ = b.Transfer(cl, from, to, 1+rng.Intn(5), false)
		}
	})

	c.Run(func(cl *cb.Client) {
		for inj.Running() || in.PendingVMs() > 0 {
			cl.Sleep(time.Second)
		}
		cl.Sleep(8 * time.Second)
	})
	var sum int
	c.Run(func(cl *cb.Client) {
		var serr error
		sum, serr = b.Sum(cl)
		if serr != nil {
			t.Fatalf("sum: %v", serr)
		}
	})
	if !slices.ContainsFunc(inj.TimelineStrings(), func(e string) bool {
		return strings.Contains(e, "crash-at "+workload.BankMidTransfer+": crash")
	}) {
		t.Fatalf("mid-transfer crash never fired — the scenario did not run: %v", inj.TimelineStrings())
	}
	if sum == b.Total() {
		t.Fatalf("balance sum %d survived a mid-transfer crash under LWW — expected the invariant to break", sum)
	}
	t.Logf("LWW balance sum after mid-transfer crash: %d (invariant %d, drift %+d)", sum, b.Total(), sum-b.Total())
}

// TestFig15TxnFigure is the figure smoke: six mode rows, a zero sum
// drift and zero in-doubt leftovers under Transactional mode (steady
// state and through the kill/restart panel), and a nonzero commit
// count.
func TestFig15TxnFigure(t *testing.T) {
	cfg := Fig15Quick()
	cfg.Clients, cfg.Requests = 2, 12
	cfg.RunFor = 35 * time.Second // past recovery, so the post phase has samples
	r := RunFig15(cfg)
	t.Log(r.Print())
	if len(r.Rows) != len(fig15Modes) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(fig15Modes))
	}
	for _, row := range r.Rows {
		if row.Issued == 0 {
			t.Errorf("%s: no transfers issued", row.Name)
		}
		if row.Name == "Txn" {
			if row.N == 0 {
				t.Errorf("Txn: no transfer committed")
			}
			if row.SumDrift != 0 {
				t.Errorf("Txn: steady-state sum drift %+d, want 0", row.SumDrift)
			}
			if row.InDoubt != 0 {
				t.Errorf("Txn: %d prepared txns left in doubt", row.InDoubt)
			}
		}
	}
	f := r.Failure
	if f.Completed == 0 {
		t.Error("failure panel: nothing completed")
	}
	if f.SumDrift != 0 {
		t.Errorf("failure panel: sum drift %+d through kill/restart, want 0", f.SumDrift)
	}
	if f.InDoubt != 0 {
		t.Errorf("failure panel: %d prepared txns left in doubt", f.InDoubt)
	}
	if len(f.Timeline) == 0 {
		t.Error("failure panel: empty fault timeline")
	}
}
