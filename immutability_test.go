package cloudburst

// End-to-end enforcement of the data plane's payload-immutability
// convention: with the lattice payload guard armed, a workload that
// writes, reads, caches, and write-backs through every consistency mode
// must never mutate a capsule's bytes in place — sharing (not copying)
// payload slices across cache, KVS, and executor is only sound if every
// writer allocates a fresh buffer.

import (
	"fmt"
	"testing"

	"cloudburst/internal/lattice"
)

func TestPayloadImmutabilityAllModes(t *testing.T) {
	modes := []Consistency{LWW, RepeatableRead, SingleKeyCausal, MultiKeyCausal, Causal}
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			lattice.GuardPayloads()
			cfg := DefaultConfig()
			cfg.Mode = mode
			c := testCluster(t, cfg)
			var final []string // the client's last read of "list"
			if err := c.RegisterFunction("rmw", func(ctx *Ctx, args []any) (any, error) {
				key := args[0].(string)
				cur, found, err := ctx.Get(key)
				if err != nil {
					return nil, err
				}
				var list []string
				if found {
					list = cur.([]string)
				}
				// Mutating through append is the realistic hazard: the
				// decoded slice must not share spare capacity with the
				// capsule's buffer.
				list = append(list, fmt.Sprintf("e%d", len(list)))
				if err := ctx.Put(key, list); err != nil {
					return nil, err
				}
				return len(list), nil
			}); err != nil {
				t.Fatal(err)
			}
			c.Run(func(cl *Client) {
				if err := cl.Put("blob", []byte("payload-bytes")); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 4; i++ {
					if _, err := cl.Invoke("rmw", []any{"list"}).Wait(); err != nil {
						t.Fatal(err)
					}
					if v, found, err := cl.Get("blob"); err != nil || !found || string(v.([]byte)) != "payload-bytes" {
						t.Fatalf("blob read = %v %v %v", v, found, err)
					}
				}
				v, found, err := cl.Get("list")
				if err != nil || !found {
					t.Fatalf("list read = %v %v %v", v, found, err)
				}
				final = v.([]string)
			})
			if err := lattice.VerifyPayloads(); err != nil {
				t.Fatal(err)
			}
			// A decoded list's elements view its capsule's payload, so a
			// payload rewritten under them shows here by value, wherever
			// the rewrite happened. The client reads Anna, which the
			// caches' write-back may not have reached with every append.
			if len(final) == 0 {
				t.Fatal("the list read is empty")
			}
			for i, x := range final {
				if want := fmt.Sprintf("e%d", i); x != want {
					t.Fatalf("list = %q at the end: element %d is %q, want %q", final, i, x, want)
				}
			}
		})
	}
}
