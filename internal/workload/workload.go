// Package workload implements the workloads of the paper's evaluation
// (§6): the arithmetic composition microbenchmark, the Zipf-skewed
// random string DAGs of the consistency experiments, the array-sum
// locality benchmark, gossip-based distributed aggregation, the
// three-stage prediction-serving pipeline, and the Retwis Twitter clone.
// Each workload is expressed against the public Cloudburst API so the
// same code drives examples, tests, and the benchmark harness.
package workload

import (
	"math/rand"
	"strconv"

	cb "cloudburst"
	"cloudburst/internal/codec"
	"cloudburst/internal/lattice"
)

// Keyspace names and samples a set of KVS keys with Zipfian popularity,
// the access distribution used throughout §6 (coefficient 1.0 over 1M
// keys in §6.1.4 and §6.2).
type Keyspace struct {
	Prefix string
	N      int
	zipf   *rand.Zipf
}

// NewKeyspace builds a keyspace of n keys with Zipf coefficient s.
// rand.Zipf requires s > 1, so the paper's coefficient 1.0 is
// approximated with 1.0001.
func NewKeyspace(rng *rand.Rand, prefix string, n int, s float64) *Keyspace {
	if s <= 1 {
		s = 1.0001
	}
	return &Keyspace{
		Prefix: prefix,
		N:      n,
		zipf:   rand.NewZipf(rng, s, 1, uint64(n-1)),
	}
}

// Key returns the i'th key's name, Prefix-%07d for i ≥ 0, built on the
// stack so the string is its one allocation.
func (ks *Keyspace) Key(i int) string {
	var num [20]byte
	d := strconv.AppendInt(num[:0], int64(i), 10)
	var buf [48]byte
	b := append(append(buf[:0], ks.Prefix...), "-000000"[:max(1, 8-len(d))]...)
	return string(append(b, d...))
}

// Sample draws a key by popularity.
func (ks *Keyspace) Sample() string { return ks.Key(int(ks.zipf.Uint64())) }

// SampleIndex draws a key index by popularity.
func (ks *Keyspace) SampleIndex() int { return int(ks.zipf.Uint64()) }

// Preload inserts every key directly into Anna with payload bytes of the
// given size, encapsulated per the cluster's consistency mode.
func (ks *Keyspace) Preload(c *cb.Cluster, payloadSize int) {
	payload := codec.MustEncode(string(make([]byte, payloadSize)))
	for i := 0; i < ks.N; i++ {
		preload(c, ks.Key(i), 1, nil, payload)
	}
}

// preload stores payload under key directly in Anna, in the capsule of the
// cluster's consistency mode: the n'th write of the "preload" writer,
// depending on deps, in the causal modes, and an LWW write at clock 1
// otherwise (a causal-mode cache read asserts a causal capsule).
func preload(c *cb.Cluster, key string, n uint64, deps map[string]lattice.VectorClock, payload []byte) {
	var lat lattice.Lattice
	if c.Internal().Mode().Causal() {
		lat = lattice.NewCausal(lattice.VectorClock{"preload": n}, deps, payload)
	} else {
		lat = lattice.NewLWW(lattice.Timestamp{Clock: 1}, payload)
	}
	c.Internal().KV.Preload(key, lat)
}

// RegisterArithmetic installs the §6.1.1 microbenchmark functions:
// square(increment(x)) with minimal computation to isolate system
// overhead.
func RegisterArithmetic(c *cb.Cluster) error {
	if err := c.RegisterFunction("increment", func(ctx *cb.Ctx, args []any) (any, error) {
		return args[0].(int) + 1, nil
	}); err != nil {
		return err
	}
	return c.RegisterFunction("square", func(ctx *cb.Ctx, args []any) (any, error) {
		x := args[0].(int)
		return x * x, nil
	})
}

// ComposePipeline registers the two-function DAG square∘increment.
func ComposePipeline(c *cb.Cluster, replicas int) error {
	if err := RegisterArithmetic(c); err != nil {
		return err
	}
	return c.RegisterDAG(cb.LinearDAG("composition", "increment", "square"), replicas)
}
