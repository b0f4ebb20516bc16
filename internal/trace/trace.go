// Package trace is the virtual-time distributed tracing plane: a
// per-cluster span collector that reconstructs where each request's
// wall-clock time went — scheduler queue, dispatch work, Anna round
// trips, cache machinery, function compute, §4.5 retries, simulated
// network flight — as a span tree keyed by the request ID.
//
// # The zero-perturbation rule
//
// Tracing is CPU-side only, never on the wire. Span context propagates
// across hops by re-attaching to the collector under the request ID
// that every wire struct already carries (the same key the client and
// traffic-pool demuxes use), and within a hop by passing Ctx values
// down ordinary call paths. No wire struct gains a field, no message
// grows a byte, no component sleeps or draws randomness on behalf of
// the tracer — so the simulated byte schedule, every service time, and
// every figure table are byte-identical with tracing on or off
// (enforced by diff tests in internal/bench). A collector is a harness
// observer: per-cluster handles keep parallel experiment cells
// isolated.
//
// A nil *Collector (and the zero Ctx) disables everything: every
// method is nil-receiver-safe and allocation-free, pinned by
// testing.AllocsPerRun.
package trace

import (
	"time"

	"cloudburst/internal/vtime"
)

// Category is the critical-path attribution bucket a span charges its
// self-time to (the columns of the fig14 breakdown).
type Category uint8

const (
	// Unattributed is root-only coverage: wall time no instrumented
	// span accounts for. The fig14 acceptance gate bounds it.
	Unattributed Category = iota
	Queue                 // inbox wait before a serial handler picked the message up
	Dispatch              // scheduler dispatch work and executor invoke overhead
	KVS                   // Anna Get/MultiGet round trips
	Cache                 // co-located cache machinery: IPC, hits, upstream peer fetches
	Compute               // function body self-time
	Retry                 // §4.5 re-execution: time lost to an abandoned attempt
	Network               // simulated flight time between endpoints
	NumCategories
)

var catNames = [NumCategories]string{
	"unattributed", "queue", "dispatch", "kvs", "cache", "compute", "retry", "network",
}

func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "?"
}

// Span is one timed region of a request. Parent indexes the trace's
// span slice (-1 for the root), so a trace is a flat, pooled arena.
type Span struct {
	Name   string
	Cat    Category
	Start  vtime.Time
	End    vtime.Time
	Parent int32
}

// Trace is one request's span tree across every hop it touched.
type Trace struct {
	ReqID   string
	ID      uint64 // deterministic: FNV-1a(ReqID) mixed with Attempt
	Attempt int32
	Spans   []Span // Spans[0] is the root

	attemptStart vtime.Time // current attempt's start (retry accounting)
	// gen invalidates outstanding Ctxs when the trace is finished,
	// dropped, or re-rooted: a component can still hold an open span
	// into a request whose trace the demux side already resolved (a
	// drained pool drops a request an executor is mid-compute on), and
	// its late End must not touch the recycled — possibly re-rooted —
	// arena.
	gen uint32
}

// Root returns the root span (zero Span for an empty trace).
func (t *Trace) Root() Span {
	if len(t.Spans) == 0 {
		return Span{}
	}
	return t.Spans[0]
}

// Summary is the critical-path digest of one finished trace: the
// analyzer's category fold, kept for quantiles long after the full
// span tree has been recycled.
type Summary struct {
	ReqID    string
	Wall     time.Duration
	ByCat    [NumCategories]time.Duration
	Attempts int32
}

// Attributed returns the share of wall time charged to a named
// category (everything but Unattributed); 0 for an empty summary.
func (s Summary) Attributed() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Wall-s.ByCat[Unattributed]) / float64(s.Wall)
}

// Dominant returns the named category with the largest share and that
// share. Ties break toward the lower category index, so equal inputs
// give equal answers.
func (s Summary) Dominant() (Category, float64) {
	best := Category(1)
	for c := Category(2); c < NumCategories; c++ {
		if s.ByCat[c] > s.ByCat[best] {
			best = c
		}
	}
	if s.Wall <= 0 {
		return best, 0
	}
	return best, float64(s.ByCat[best]) / float64(s.Wall)
}

// Stats is the collector's bookkeeping.
type Stats struct {
	TracesCompleted int64
	TracesDropped   int64
}

// DefaultRing is how many finished traces a collector retains in full
// (span trees, for export); summaries are kept for every finish.
const DefaultRing = 64

// Collector owns one cluster's traces. It is single-kernel state —
// the cooperative scheduler serializes all access within a cluster, so
// plain maps and slices need no locking — and is threaded per cluster
// so parallel experiment cells never share one.
type Collector struct {
	active    map[string]*Trace
	done      []*Trace // ring of finished traces, oldest overwritten
	donePos   int
	ring      int
	free      vtime.FreeList[*Trace]
	summaries []Summary
	stats     Stats
}

// New returns an enabled collector with the default retention ring.
func New() *Collector { return NewRing(DefaultRing) }

// NewRing returns a collector retaining up to ring finished traces.
func NewRing(ring int) *Collector {
	if ring < 1 {
		ring = 1
	}
	return &Collector{active: make(map[string]*Trace), ring: ring}
}

// traceID derives the deterministic trace ID from a request ID and
// attempt (FNV-1a, attempt folded in last).
func traceID(reqID string, attempt int32) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(reqID); i++ {
		h = (h ^ uint64(reqID[i])) * prime
	}
	return (h ^ uint64(uint32(attempt))) * prime
}

// Root opens a trace for reqID with a root span starting at. An
// already-active reqID is reset (the previous tree is recycled), so
// collectors survive request-ID reuse across experiment phases.
func (c *Collector) Root(reqID, name string, at vtime.Time) Ctx {
	if c == nil {
		return Ctx{}
	}
	if old, ok := c.active[reqID]; ok {
		c.recycle(old)
	}
	t, ok := c.free.Get()
	if !ok {
		t = &Trace{}
	}
	t.ReqID = reqID
	t.Attempt = 0
	t.ID = traceID(reqID, 0)
	t.attemptStart = at
	t.Spans = append(t.Spans[:0], Span{Name: name, Start: at, End: at, Parent: -1})
	c.active[reqID] = t
	return Ctx{tr: t, idx: 0, gen: t.gen}
}

// Attach returns a Ctx rooted at reqID's active trace, or a disabled
// Ctx when the request is unknown — the cross-hop propagation path:
// every component that already demuxes by request ID can join the
// trace without any wire cooperation.
func (c *Collector) Attach(reqID string) Ctx {
	if c == nil {
		return Ctx{}
	}
	t, ok := c.active[reqID]
	if !ok {
		return Ctx{}
	}
	return Ctx{tr: t, idx: 0, gen: t.gen}
}

// Reissue marks a §4.5 re-execution of reqID at time at: the previous
// attempt's window becomes a retry-category span and the attempt
// counter (folded into the trace ID) advances.
func (c *Collector) Reissue(reqID string, at vtime.Time) {
	if c == nil {
		return
	}
	t, ok := c.active[reqID]
	if !ok {
		return
	}
	t.Spans = append(t.Spans, Span{
		Name: "retry", Cat: Retry, Start: t.attemptStart, End: at, Parent: 0,
	})
	t.Attempt++
	t.ID = traceID(t.ReqID, t.Attempt)
	t.attemptStart = at
}

// Finish closes reqID's root span at, folds the tree through the
// critical-path analyzer, retains the summary (and the full tree in
// the ring), and returns the summary.
func (c *Collector) Finish(reqID string, at vtime.Time) (Summary, bool) {
	if c == nil {
		return Summary{}, false
	}
	t, ok := c.active[reqID]
	if !ok {
		return Summary{}, false
	}
	delete(c.active, reqID)
	t.gen++ // outstanding Ctxs must not mutate the retained tree
	t.Spans[0].End = at
	s := Analyze(t)
	c.summaries = append(c.summaries, s)
	c.stats.TracesCompleted++
	// Retain the finished tree; recycle whatever the ring evicts.
	if len(c.done) < c.ring {
		c.done = append(c.done, t)
	} else {
		c.recycle(c.done[c.donePos])
		c.done[c.donePos] = t
		c.donePos = (c.donePos + 1) % c.ring
	}
	return s, true
}

// Drop abandons reqID's trace (a lost request): nothing is retained.
func (c *Collector) Drop(reqID string) {
	if c == nil {
		return
	}
	t, ok := c.active[reqID]
	if !ok {
		return
	}
	delete(c.active, reqID)
	c.recycle(t)
	c.stats.TracesDropped++
}

func (c *Collector) recycle(t *Trace) {
	t.ReqID = ""
	t.Spans = t.Spans[:0]
	t.gen++ // invalidate outstanding Ctxs into the recycled arena
	c.free.Put(t)
}

// Done returns the retained finished traces, oldest first. The slice
// is freshly built; the traces are owned by the collector and valid
// until evicted by later finishes.
func (c *Collector) Done() []*Trace {
	if c == nil {
		return nil
	}
	out := make([]*Trace, 0, len(c.done))
	for i := 0; i < len(c.done); i++ {
		out = append(out, c.done[(c.donePos+i)%len(c.done)])
	}
	return out
}

// Summaries returns every finished trace's critical-path digest in
// finish order.
func (c *Collector) Summaries() []Summary {
	if c == nil {
		return nil
	}
	return c.summaries
}

// Quantile returns the summary whose wall time is the q-quantile order
// statistic of all finished traces (ties broken by request ID, so the
// pick is deterministic). ok is false when nothing has finished.
func (c *Collector) Quantile(q float64) (Summary, bool) {
	if c == nil || len(c.summaries) == 0 {
		return Summary{}, false
	}
	sorted := make([]Summary, len(c.summaries))
	copy(sorted, c.summaries)
	// Insertion-friendly sizes are not guaranteed; use a simple stable
	// comparison sort on (Wall, ReqID).
	sortSummaries(sorted)
	idx := int(q * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx], true
}

func sortSummaries(s []Summary) {
	// Shell sort: no package deps, deterministic, fine for summary counts.
	for gap := len(s) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(s); i++ {
			v := s[i]
			j := i
			for ; j >= gap && summaryLess(v, s[j-gap]); j -= gap {
				s[j] = s[j-gap]
			}
			s[j] = v
		}
	}
}

func summaryLess(a, b Summary) bool {
	if a.Wall != b.Wall {
		return a.Wall < b.Wall
	}
	return a.ReqID < b.ReqID
}

// Stats returns this collector's counters.
func (c *Collector) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return c.stats
}

// Ctx is a position in a trace's span tree. The zero Ctx is disabled:
// every method no-ops, so call sites never branch on whether tracing
// is on. A Ctx outlives its trace safely: once the trace is finished,
// dropped, or re-rooted, the stale Ctx's generation no longer matches
// and every method no-ops.
type Ctx struct {
	tr  *Trace
	idx int32
	gen uint32
}

// Enabled reports whether the Ctx records anything.
func (x Ctx) Enabled() bool { return x.tr != nil && x.gen == x.tr.gen }

// Start opens a child span under x at time at and returns its Ctx.
func (x Ctx) Start(name string, cat Category, at vtime.Time) Ctx {
	if !x.Enabled() {
		return Ctx{}
	}
	idx := int32(len(x.tr.Spans))
	x.tr.Spans = append(x.tr.Spans, Span{Name: name, Cat: cat, Start: at, End: at, Parent: x.idx})
	return Ctx{tr: x.tr, idx: idx, gen: x.gen}
}

// End closes x's span at time at.
func (x Ctx) End(at vtime.Time) {
	if !x.Enabled() {
		return
	}
	x.tr.Spans[x.idx].End = at
}

// Record appends a closed child span under x.
func (x Ctx) Record(name string, cat Category, start, end vtime.Time) {
	if !x.Enabled() {
		return
	}
	x.tr.Spans = append(x.tr.Spans, Span{Name: name, Cat: cat, Start: start, End: end, Parent: x.idx})
}
