// Package simnet provides a simulated point-to-point message network on
// top of the vtime kernel: named nodes with unbounded inboxes, per-link
// latency and bandwidth models, FIFO delivery per link (TCP-like, by the
// receiver's NIC queue), node failure injection, and a synchronous RPC.
package simnet

import (
	"math"
	"math/rand"
	"time"
)

// LatencyModel draws one-way message latencies.
type LatencyModel interface {
	// Sample returns one latency draw. Implementations must be
	// deterministic functions of the supplied random source.
	Sample(rng *rand.Rand) time.Duration
}

// Constant is a fixed latency.
type Constant time.Duration

// Sample implements LatencyModel.
func (c Constant) Sample(*rand.Rand) time.Duration { return time.Duration(c) }

// LogNormal draws from a log-normal distribution parameterised by its
// median and the sigma of the underlying normal. This is the standard
// shape for datacenter RPC latency: tight around the median with a heavy
// right tail, which is what produces the paper's 99th-percentile whiskers.
type LogNormal struct {
	Med   time.Duration
	Sigma float64
}

// Sample implements LatencyModel.
func (l LogNormal) Sample(rng *rand.Rand) time.Duration {
	z := rng.NormFloat64()
	return time.Duration(float64(l.Med) * math.Exp(l.Sigma*z))
}

// Spiky wraps a base model and, with probability P, multiplies the draw by
// Factor. It models GC pauses, cold starts, and other rare stalls that
// dominate tail latency.
type Spiky struct {
	Base   LatencyModel
	P      float64
	Factor float64
}

// Sample implements LatencyModel.
func (s Spiky) Sample(rng *rand.Rand) time.Duration {
	d := s.Base.Sample(rng)
	if rng.Float64() < s.P {
		return time.Duration(float64(d) * s.Factor)
	}
	return d
}
