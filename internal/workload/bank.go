package workload

import (
	"fmt"
	"time"

	cb "cloudburst"
	"cloudburst/internal/codec"
)

// BankMidTransfer is the point-cut a transfer fires between its debit
// and its credit. Arming a fault.CrashAt on it kills the executing VM
// exactly inside the window where the write set is half applied — the
// probe the chaos matrix uses to show LWW loses money there and the
// transactional mode does not.
const BankMidTransfer = "wl/bank/mid-transfer"

// bankInitial is every account's starting balance.
const bankInitial = 100

// Bank is the bank-transfer workload: a fixed set of accounts, each
// preloaded with the same balance, and a transfer function that debits
// one account and credits another. The invariant is that the balance
// sum never changes. Non-transactional modes break it two ways —
// concurrent read-modify-writes lose updates under LWW merge, and a
// crash between debit and credit strands the difference — while
// transfers invoked WithTxn commit both writes atomically or not at
// all.
type Bank struct {
	Accounts int
}

// Key returns the i'th account's KVS key.
func (b *Bank) Key(i int) string { return fmt.Sprintf("bank-%04d", i) }

// Total is the invariant: the sum of all balances at any quiescent
// point.
func (b *Bank) Total() int { return b.Accounts * bankInitial }

// RegisterBank installs the transfer and audit functions and returns
// the workload handle. Preload must still be called before driving
// traffic.
func RegisterBank(c *cb.Cluster, accounts int) (*Bank, error) {
	b := &Bank{Accounts: accounts}
	err := c.RegisterFunction("bank-transfer", func(ctx *cb.Ctx, args []any) (any, error) {
		from, to := args[0].(string), args[1].(string)
		amount := args[2].(int)
		fv, found, err := ctx.Get(from)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("bank: no account %s", from)
		}
		tv, found, err := ctx.Get(to)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("bank: no account %s", to)
		}
		fb, tb := fv.(int), tv.(int)
		if err := ctx.Put(from, fb-amount); err != nil {
			return nil, err
		}
		// The debit is out (or staged); the credit is not. Crashing here
		// is the torn-write probe.
		ctx.Compute(10 * time.Millisecond)
		ctx.Hook(BankMidTransfer)
		if err := ctx.Put(to, tb+amount); err != nil {
			return nil, err
		}
		return fb - amount, nil
	})
	if err != nil {
		return nil, err
	}
	err = c.RegisterFunction("bank-sum", func(ctx *cb.Ctx, args []any) (any, error) {
		total := 0
		for i := 0; i < accounts; i++ {
			v, found, err := ctx.Get(b.Key(i))
			if err != nil {
				return nil, err
			}
			if !found {
				return nil, fmt.Errorf("bank: account %s missing", b.Key(i))
			}
			total += v.(int)
		}
		return total, nil
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Preload seeds every account with the initial balance directly in
// Anna, encapsulated for the cluster's consistency mode.
func (b *Bank) Preload(c *cb.Cluster) {
	payload := codec.MustEncode(bankInitial)
	for i := 0; i < b.Accounts; i++ {
		preload(c, b.Key(i), 1, nil, payload)
	}
}

// Transfer moves amount from account i to account j, transactionally
// when txn is set. Aborted transactions surface as errors; callers
// count them and retry (or not) at their own pace.
func (b *Bank) Transfer(cl *cb.Client, i, j, amount int, txn bool) error {
	args := []any{b.Key(i), b.Key(j), amount}
	var fut *cb.Future
	if txn {
		fut = cl.Invoke("bank-transfer", args, cb.WithTxn())
	} else {
		fut = cl.Invoke("bank-transfer", args)
	}
	_, err := fut.Wait()
	return err
}

// Sum reads every balance in one invocation and returns the total.
func (b *Bank) Sum(cl *cb.Client) (int, error) {
	return cb.As[int](cl.Invoke("bank-sum", nil))
}
