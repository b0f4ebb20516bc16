package traffic

// Streaming measurement: a geometric-bucket latency histogram plus a
// per-second completion timeline. Both are incremental — Observe is
// O(log buckets) and memory is O(buckets + seconds), never
// O(requests) — so an open-loop window at 10⁵+ req/s records without
// building a sample slice. Capsule is the wire form (a codec wire
// struct) used to persist a window's results in Anna.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/codec"
	"cloudburst/internal/lattice"
	"cloudburst/internal/vtime"
)

// Histogram counts latencies in geometrically-growing buckets: bucket
// i spans (bounds[i-1], bounds[i]] with bounds[i] = first·growth^i,
// plus one overflow bucket. Quantiles report the bucket upper bound,
// so the relative error is bounded by growth-1.
type Histogram struct {
	first  time.Duration
	growth float64
	bounds []time.Duration
	counts []uint64 // len(bounds)+1; the last is overflow
	n      uint64
	sum    time.Duration
	max    time.Duration
}

// NewHistogram builds a histogram whose first bucket ends at first and
// whose bucket bounds grow by the given factor (> 1).
func NewHistogram(first time.Duration, growth float64, buckets int) *Histogram {
	h := &Histogram{first: first, growth: growth}
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
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Quantile reports the q'th latency quantile as the upper bound of the
// bucket holding that rank; the overflow bucket reports the exact
// maximum.
func (h *Histogram) Quantile(q float64) time.Duration {
	return quantile(h.bounds, h.counts, h.n, h.max, q)
}

func quantile(bounds []time.Duration, counts []uint64, n uint64, max time.Duration, q float64) time.Duration {
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(bounds) {
				return bounds[i]
			}
			break
		}
	}
	return max
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

// Capsule freezes the recording into its wire form.
func (r *Recorder) Capsule(name string) Capsule {
	return Capsule{
		Name:    name,
		FirstNS: int64(r.Hist.first),
		Growth:  r.Hist.growth,
		Counts:  r.Hist.counts,
		SumNS:   int64(r.Hist.sum),
		MaxNS:   int64(r.Hist.max),
		PerSec:  r.PerSec,
		Issued:  r.Issued,
		Done:    r.Done,
		Failed:  r.Failed,
		Lost:    r.Lost,
	}
}

// Capsule is a recorder window on the wire: histogram geometry plus
// bucket counts plus the timeline and counters, as a codec wire
// struct (tag 0x0f).
type Capsule struct {
	Name    string
	FirstNS int64
	Growth  float64
	Counts  []uint64
	SumNS   int64
	MaxNS   int64
	PerSec  []uint64
	Issued  int64
	Done    int64
	Failed  int64
	Lost    int64
}

func init() {
	codec.RegisterStruct[Capsule, *Capsule]("traffic.Capsule")
}

func (c Capsule) AppendWire(dst []byte) []byte {
	dst = codec.AppendStr(dst, c.Name)
	dst = codec.AppendI64(dst, c.FirstNS)
	dst = codec.AppendF64(dst, c.Growth)
	dst = codec.AppendU64s(dst, c.Counts)
	dst = codec.AppendI64(dst, c.SumNS)
	dst = codec.AppendI64(dst, c.MaxNS)
	dst = codec.AppendU64s(dst, c.PerSec)
	dst = codec.AppendI64(dst, c.Issued)
	dst = codec.AppendI64(dst, c.Done)
	dst = codec.AppendI64(dst, c.Failed)
	return codec.AppendI64(dst, c.Lost)
}

func (c *Capsule) DecodeWire(body []byte) error {
	r := codec.NewReader(body)
	c.Name = r.Str()
	c.FirstNS = r.I64()
	c.Growth = r.F64()
	c.Counts = r.U64s()
	c.SumNS = r.I64()
	c.MaxNS = r.I64()
	c.PerSec = r.U64s()
	c.Issued = r.I64()
	c.Done = r.I64()
	c.Failed = r.I64()
	c.Lost = r.I64()
	return r.Done()
}

// Quantile reports the q'th latency quantile from the capsuled bucket
// counts (bounds are reconstructed from the geometry).
func (c Capsule) Quantile(q float64) time.Duration {
	if len(c.Counts) == 0 {
		return 0
	}
	bounds := make([]time.Duration, len(c.Counts)-1)
	b := float64(c.FirstNS)
	var n uint64
	for i := range bounds {
		bounds[i] = time.Duration(b)
		b *= c.Growth
	}
	for _, cnt := range c.Counts {
		n += cnt
	}
	return quantile(bounds, c.Counts, n, time.Duration(c.MaxNS), q)
}

// Sustained reports the successful-completion rate (req/s) over the
// first window seconds of the capsule's timeline.
func (c Capsule) Sustained(window time.Duration) float64 {
	secs := int(window / time.Second)
	if secs <= 0 {
		return 0
	}
	var done uint64
	for i := 0; i < secs && i < len(c.PerSec); i++ {
		done += c.PerSec[i]
	}
	return float64(done) / window.Seconds()
}

// CapsuleKey names the Anna key a traffic window is published under.
func CapsuleKey(name string) string { return "sys/traffic/" + name }

// PublishCapsule persists a window's capsule in Anna under
// CapsuleKey(c.Name) so results survive the pool and cross the wire codec.
func PublishCapsule(k *vtime.Kernel, ac *anna.Client, c Capsule) error {
	ts := lattice.Timestamp{Clock: int64(k.Now()), Node: 0x7aff1c}
	return ac.Put(CapsuleKey(c.Name), lattice.NewLWW(ts, codec.MustEncode(c)))
}

// LoadCapsule reads a published window back.
func LoadCapsule(ac *anna.Client, name string) (Capsule, error) {
	lat, found, err := ac.Get(CapsuleKey(name))
	if err != nil {
		return Capsule{}, err
	}
	if !found {
		return Capsule{}, fmt.Errorf("traffic: no capsule %q", name)
	}
	lww, ok := lat.(*lattice.LWW)
	if !ok {
		return Capsule{}, fmt.Errorf("traffic: capsule %q is %T, not LWW", name, lat)
	}
	v, err := codec.Decode(lww.Value)
	if err != nil {
		return Capsule{}, err
	}
	c, ok := v.(Capsule)
	if !ok {
		return Capsule{}, fmt.Errorf("traffic: capsule %q decoded to %T", name, v)
	}
	return c, nil
}
