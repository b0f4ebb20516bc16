package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	cb "cloudburst"
	"cloudburst/internal/core"
	"cloudburst/internal/parallel"
	"cloudburst/internal/workload"
)

// Fig15Config parameterizes the transactional-commit figure: the bank
// workload swept across all six consistency modes (transfers ride 2PC
// only in Transactional mode), plus a fig10-style kill/restart run in
// Transactional mode to price recovery.
type Fig15Config struct {
	Clients  int // closed-loop clients per mode
	Requests int // transfers per client
	// Crash times the failure panel (fig10 shape: kill one VM mid-run,
	// restart).
	Crash
	Seed int64
}

const (
	fig15Accounts = 10 // bank accounts
	fig15VMs      = 3
)

// Fig15Quick returns CI-friendly parameters.
func Fig15Quick() Fig15Config {
	return Fig15Config{
		Clients: 3, Requests: 40,
		Crash: Crash{
			KillAt: 10 * time.Second, RestFor: 10 * time.Second,
			VMSpinUp: 6 * time.Second, RunFor: 45 * time.Second,
		},
		Seed: 71,
	}
}

// Fig15Paper returns a heavier sweep for cb-bench -full.
func Fig15Paper() Fig15Config {
	c := Fig15Quick()
	c.Clients, c.Requests = 8, 150
	c.KillAt, c.RestFor, c.RunFor = 20*time.Second, 15*time.Second, 90*time.Second
	return c
}

// fig15Modes is the six-mode sweep: the five §6.2 levels plus the
// transactional mode this figure is about.
var fig15Modes = append(slices.Clip(AllModes), cb.Transactional)

// Fig15Row is one mode's outcome.
type Fig15Row struct {
	Summary          // latency of successful transfers
	Issued   int     // transfers attempted
	Aborts   int     // 2PC validation aborts (Transactional mode only)
	SumDrift int     // final balance sum minus the invariant — 0 iff atomic
	InDoubt  int     // prepared leftovers on Anna — must be 0
	AbortPct float64 // Aborts / Issued
}

// Fig15FailurePanel is the kill/restart run under Transactional mode.
type Fig15FailurePanel struct {
	CrashOutcome
	Aborts   int // 2PC validation aborts, not counted as failed
	SumDrift int
	InDoubt  int
}

// Fig15Result is the full figure.
type Fig15Result struct {
	Rows    []Fig15Row
	Failure Fig15FailurePanel
}

// Print renders the mode table and the failure panel.
func (r Fig15Result) Print() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Name,
			fmt.Sprintf("%d", row.N),
			fmt.Sprintf("%.2f", row.Median),
			fmt.Sprintf("%.2f", row.P99),
			fmt.Sprintf("%d", row.Aborts),
			fmt.Sprintf("%.1f%%", row.AbortPct*100),
			fmt.Sprintf("%+d", row.SumDrift),
			fmt.Sprintf("%d", row.InDoubt),
		}
	}
	out := Table("Figure 15: transactional commit — latency, abort rate, and atomicity by mode",
		[]string{"mode", "n", "p50(ms)", "p99(ms)", "aborts", "abort%", "sum drift", "in-doubt"}, rows)
	f := r.Failure
	out += Table("txn under failure: coordinator VM killed mid-run (fig10 shape)", LatencyHeader,
		SummaryRows([]Summary{f.Pre, f.During, f.Post}))
	out += fmt.Sprintf("completed %d, aborts %d, failed %d, re-executions %d, sum drift %+d, in-doubt %d\n",
		f.Completed, f.Aborts, f.Failed, f.Reexecutions, f.SumDrift, f.InDoubt)
	for _, e := range f.Timeline {
		out += "  fault: " + e + "\n"
	}
	return out
}

// isTxnAbort reports whether a client-side error is a transaction
// abort (the AbortError string survives the Result round trip).
func isTxnAbort(err error) bool {
	return err != nil && strings.Contains(err.Error(), "txn: aborted")
}

// RunFig15 sweeps the bank workload across all six modes (each mode is
// an independent cluster, so the sweep fans out on the parallel
// runner) and then runs the transactional failure panel.
func RunFig15(cfg Fig15Config) Fig15Result {
	rows := parallel.Map(fig15Modes, func(_ int, mode cb.Consistency) Fig15Row {
		return fig15Mode(cfg, mode)
	})
	return Fig15Result{Rows: rows, Failure: fig15Failure(cfg)}
}

// fig15Mode runs the bank workload under one mode.
func fig15Mode(cfg Fig15Config, mode cb.Consistency) Fig15Row {
	ccfg := cb.DefaultConfig()
	ccfg.Seed = cfg.Seed
	ccfg.Mode = mode
	ccfg.VMs = fig15VMs
	ccfg.AnnaNodes = 3
	ccfg.Replication = 2
	c := cb.NewCluster(ccfg)
	defer c.Close()
	in := c.Internal()

	b, err := workload.RegisterBank(c, fig15Accounts)
	if err != nil {
		panic(err)
	}
	b.Preload(c)
	useTxn := in.Mode() == core.TXN
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second) })

	row := Fig15Row{}
	var durs []time.Duration
	c.RunN(cfg.Clients, func(i int, cl *cb.Client) {
		cl.Timeout = 30 * time.Second
		rng := rand.New(rand.NewSource(cfg.Seed + 100 + int64(i)))
		for t := 0; t < cfg.Requests; t++ {
			from, to := accountPair(rng, b.Accounts)
			row.Issued++
			start := cl.Now()
			err := b.Transfer(cl, from, to, 1+rng.Intn(5), useTxn)
			switch {
			case err == nil:
				durs = append(durs, cl.Now()-start)
			case isTxnAbort(err):
				row.Aborts++
			}
		}
	})

	// Quiesce the write-behind caches, then check the invariant.
	c.Run(func(cl *cb.Client) { cl.Sleep(5 * time.Second) })
	row.SumDrift = bankSum(c, b) - b.Total()
	row.InDoubt = in.KV.PreparedTxns()
	row.Summary = Summarize(modeLabel(mode), durs)
	if row.Issued > 0 {
		row.AbortPct = float64(row.Aborts) / float64(row.Issued)
	}
	return row
}

// accountPair draws a transfer's two distinct accounts out of n.
func accountPair(rng *rand.Rand, n int) (from, to int) {
	from = rng.Intn(n)
	if to = rng.Intn(n - 1); to >= from {
		to++
	}
	return from, to
}

// fig15Failure is the fig10-shaped panel: steady transactional
// transfers, one executor VM (a 2PC coordinator) killed mid-run and
// restarted. The invariant must hold through the crash and the
// participants must end clean.
func fig15Failure(cfg Fig15Config) Fig15FailurePanel {
	ccfg := crashCluster(cfg.Seed+1, fig15VMs, cfg.VMSpinUp, 5*time.Second)
	ccfg.Mode = cb.Transactional
	fixedFleet(&ccfg)
	c := cb.NewCluster(ccfg)
	defer c.Close()
	in := c.Internal()

	b, err := workload.RegisterBank(c, fig15Accounts)
	if err != nil {
		panic(err)
	}
	b.Preload(c)
	c.Run(func(cl *cb.Client) { cl.Sleep(3 * time.Second) })

	panel := Fig15FailurePanel{}
	inj, load := cfg.run(c, cfg.plan(in, "fig15", false), cfg.Clients, func(i int, cl *cb.Client) request {
		cl.Timeout = 5 * time.Second
		rng := rand.New(rand.NewSource(cfg.Seed + 300 + int64(i)))
		return func() func() error {
			from, to := accountPair(rng, b.Accounts)
			// A timed-out transfer is issued again, with a new amount.
			return func() error {
				err := b.Transfer(cl, from, to, 1+rng.Intn(5), true)
				if isTxnAbort(err) {
					panel.Aborts++
				}
				return err
			}
		}
	})

	// Settle: the plan is done, the replacement joined, the sweep has had
	// time to resolve anything the crash left in doubt.
	waitHealed(c, inj)
	panel.SumDrift = bankSum(c, b) - b.Total()
	panel.InDoubt = in.KV.PreparedTxns()
	panel.CrashOutcome = load.outcome(in, inj)
	panel.Failed -= panel.Aborts // an abort ends its transfer, but is not a failure
	return panel
}
