package workload

import (
	"fmt"
	"time"

	cb "cloudburst"
	"cloudburst/internal/codec"
	"cloudburst/internal/lattice"
)

// SumComputeRate is the simulated CPU throughput of the array-sum kernel
// (bytes/second). At 80MB of input the sum itself costs ~32ms, which is
// what makes computation dominate Cloudburst's hot-cache latency at the
// largest size in Figure 5.
const SumComputeRate = 2.5e9

// SumCompute returns the simulated CPU time to sum `bytes` of input.
func SumCompute(bytes int) time.Duration {
	return time.Duration(float64(bytes) / SumComputeRate * float64(time.Second))
}

// ArraySum is the §6.1.2 data-locality workload: a function that returns
// the sum of all elements across 10 input arrays, with large input and
// light computation.
type ArraySum struct {
	NumArrays int
	// Elems is the per-array element count (8-byte floats); the paper
	// sweeps 1,000..1,000,000 by decades, i.e. 80KB..80MB total.
	Elems int
}

// Keys returns the array key names for set number `set` (the hot
// workload reuses set 0; the cold workload rotates sets).
func (a ArraySum) Keys(set int) []string {
	out := make([]string, a.NumArrays)
	for i := range out {
		out[i] = fmt.Sprintf("array-s%d-%d-%d", set, a.Elems, i)
	}
	return out
}

// TotalBytes is the input size summed across arrays.
func (a ArraySum) TotalBytes() int { return a.NumArrays * a.Elems * 8 }

// Preload stores one set of arrays directly in Anna. Arrays are stored
// as raw bytes (8 bytes per logical float64 element): decoding large
// float slices element-wise would dominate the harness's real (not
// simulated) runtime, while byte slices decode with a copy. The
// simulated compute model is unchanged.
func (a ArraySum) Preload(c *cb.Cluster, set int) {
	arr := make([]byte, a.Elems*8)
	for i := range arr {
		arr[i] = byte(i % 97)
	}
	payload := codec.MustEncode(arr)
	for _, key := range a.Keys(set) {
		c.Internal().KV.Preload(key, lattice.NewLWW(lattice.Timestamp{Clock: 1}, payload))
	}
}

// Expected returns the correct sum for one preloaded set.
func (a ArraySum) Expected() float64 {
	var one float64
	for i := 0; i < a.Elems*8; i++ {
		one += float64(i % 97)
	}
	return one * float64(a.NumArrays)
}

// Register installs the "sum10" function: sums its array arguments
// (usually KVS references), paying the simulated compute cost.
func (a ArraySum) Register(c *cb.Cluster) error {
	return c.RegisterFunction("sum10", func(ctx *cb.Ctx, args []any) (any, error) {
		// Sum into an integer accumulator and convert once: every
		// partial sum is an exact integer far below 2^53, so the result
		// is bit-identical to per-element float addition while the loop
		// stays in fast integer code (this function dominates the
		// harness's real CPU at paper scale).
		var isum uint64
		bytes := 0
		for _, arg := range args {
			arr, ok := arg.([]byte)
			if !ok {
				return nil, fmt.Errorf("sum10: argument is %T, want []byte", arg)
			}
			bytes += len(arr)
			for _, v := range arr {
				isum += uint64(v)
			}
		}
		ctx.Compute(SumCompute(bytes))
		return float64(isum), nil
	})
}

// RefArgs builds the KVS-reference argument list for one set.
func (a ArraySum) RefArgs(set int) []any {
	keys := a.Keys(set)
	out := make([]any, len(keys))
	for i, k := range keys {
		out[i] = cb.Ref(k)
	}
	return out
}

// EvictEverywhere drops the set's keys from every VM cache, forcing the
// next request to miss — the "Cloudburst (Cold)" configuration, which
// the paper builds by using fresh inputs per request.
func (a ArraySum) EvictEverywhere(c *cb.Cluster, set int) {
	for _, vm := range c.Internal().VMs() {
		for _, key := range a.Keys(set) {
			vm.Cache.Evict(key)
		}
	}
}
