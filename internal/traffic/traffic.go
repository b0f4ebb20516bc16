// Package traffic is the open-loop load plane: a seeded Poisson
// arrival stream, Zipfian hot-key and weighted DAG-mix selectors, a
// fire-and-forget client pool that issues invocations at the generated
// instants regardless of completions, and a streaming
// latency/throughput recorder.
//
// Closed-loop drivers (the fig1–fig11 harnesses) put each simulated
// client to sleep on its own future, so offered load collapses exactly
// when the system slows down — the regime the paper's §3.2/§4.4 scale
// claims are *not* about. Here arrivals come from a seeded stochastic
// process on the virtual clock: when the control plane saturates, the
// queue in front of it grows and p99 diverges, which is what fig13
// measures. Everything is deterministic — generators own their
// rand.Source, pacing runs on the vtime kernel, and the recorder is an
// incremental fixed-geometry histogram (no per-request sample slice,
// so 10⁵+ req/s windows cost O(buckets) memory, not O(requests)).
package traffic

import (
	"math/rand"
	"strconv"
	"time"
)

// Poisson is a homogeneous Poisson process: independent exponential
// inter-arrival gaps with mean 1/rate.
type Poisson struct {
	rate float64
	rng  *rand.Rand
	at   float64 // seconds since stream start
}

// NewPoisson returns a Poisson arrival stream at rate requests/second.
func NewPoisson(seed int64, rate float64) *Poisson {
	return &Poisson{rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the offset of the next arrival from the stream's start.
// Offsets never decrease.
func (p *Poisson) Next() time.Duration {
	p.at += p.rng.ExpFloat64() / p.rate
	return time.Duration(p.at * float64(time.Second))
}

// ZipfKeys draws hot-skewed key names "<prefix><rank>" with
// P(rank=k) ∝ (1+k)^(-s) over n keys (Go's rand.Zipf convention;
// s must be > 1).
type ZipfKeys struct {
	prefix string
	zipf   *rand.Zipf
}

// NewZipfKeys builds a Zipfian key selector over n keys.
func NewZipfKeys(seed int64, s float64, n int, prefix string) *ZipfKeys {
	rng := rand.New(rand.NewSource(seed))
	return &ZipfKeys{prefix: prefix, zipf: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

// Next draws a key by popularity; rank 0 is the hottest key.
func (z *ZipfKeys) Next() string {
	return z.prefix + strconv.FormatUint(z.zipf.Uint64(), 10)
}

// Mix is a weighted categorical selector used for per-tenant DAG
// mixes: Next returns index i with probability weights[i]/Σweights.
type Mix struct {
	rng     *rand.Rand
	weights []int
	total   int
}

// NewMix builds a weighted selector. Weights must be non-negative with
// a positive sum.
func NewMix(seed int64, weights ...int) *Mix {
	total := 0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("traffic: NewMix needs a positive total weight")
	}
	return &Mix{rng: rand.New(rand.NewSource(seed)), weights: weights, total: total}
}

// Next draws a category index proportionally to its weight.
func (m *Mix) Next() int {
	r := m.rng.Intn(m.total)
	for i, w := range m.weights {
		if r < w {
			return i
		}
		r -= w
	}
	return len(m.weights) - 1
}
