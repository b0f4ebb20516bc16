package traffic

// Streaming measurement: a geometric-bucket latency histogram plus a
// per-second completion timeline. Both are incremental — Observe is
// O(log buckets) and memory is O(buckets + seconds), never
// O(requests) — so an open-loop window at 10⁵+ req/s records without
// building a sample slice.

import (
	"math"
	"sort"
	"time"

	"cloudburst/internal/vtime"
)

// Histogram counts latencies in geometrically-growing buckets: bucket
// i spans (bounds[i-1], bounds[i]] with bounds[i] = first·growth^i,
// plus one overflow bucket. Quantiles report the bucket upper bound,
// so the relative error is bounded by growth-1.
type Histogram struct {
	bounds []time.Duration
	counts []uint64 // len(bounds)+1; the last is overflow
	n      uint64
	max    time.Duration
}

// NewHistogram builds a histogram whose first bucket ends at first and
// whose bucket bounds grow by the given factor (> 1).
func NewHistogram(first time.Duration, growth float64, buckets int) *Histogram {
	h := &Histogram{}
	b := float64(first)
	for i := 0; i < buckets; i++ {
		h.bounds = append(h.bounds, time.Duration(b))
		b *= growth
	}
	h.counts = make([]uint64, buckets+1)
	return h
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i]++
	h.n++
	if d > h.max {
		h.max = d
	}
}

// Quantile reports the q'th latency quantile as the upper bound of the
// bucket holding that rank; the overflow bucket reports the exact
// maximum.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			break
		}
	}
	return h.max
}

// Recorder is the pool's measurement sink: one histogram of end-to-end
// latencies plus the per-second completion timeline and the outcome
// counters fig13 and the chaos traffic cell report.
type Recorder struct {
	k     *vtime.Kernel
	start vtime.Time
	Hist  *Histogram

	// PerSec[s] counts successful completions in second s of the
	// window (by completion instant).
	PerSec []uint64

	Issued int64 // requests fired
	Done   int64 // successful results
	Failed int64 // system-reported error results
	Lost   int64 // never completed (attempts exhausted or drain expired)
}

// NewRecorder starts a recorder at the kernel's current instant. The
// histogram spans 100µs–~100s at 5% resolution.
func NewRecorder(k *vtime.Kernel) *Recorder {
	return &Recorder{
		k:     k,
		start: k.Now(),
		Hist:  NewHistogram(100*time.Microsecond, 1.05, 284),
	}
}

// Observe records one terminal result: latency is measured from the
// request's first issue to now.
func (r *Recorder) Observe(latency time.Duration, ok bool) {
	if !ok {
		r.Failed++
		return
	}
	r.Done++
	r.Hist.Observe(latency)
	sec := int(r.k.Now().Sub(r.start) / time.Second)
	for len(r.PerSec) <= sec {
		r.PerSec = append(r.PerSec, 0)
	}
	r.PerSec[sec]++
}

// Sustained reports the successful-completion rate (req/s) over the
// first window seconds of the timeline.
func (r *Recorder) Sustained(window time.Duration) float64 {
	secs := int(window / time.Second)
	if secs <= 0 {
		return 0
	}
	var done uint64
	for i := 0; i < secs && i < len(r.PerSec); i++ {
		done += r.PerSec[i]
	}
	return float64(done) / window.Seconds()
}
