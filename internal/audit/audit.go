// Package audit implements the Table 2 methodology: run the system in
// LWW mode while recording every read and write (with the write-id tags
// the executor embeds in payloads), then replay the trace through
// detectors for each consistency level to count the anomalies that level
// would have flagged:
//
//   - SK: a read observed a key whose causally-concurrent updates LWW
//     merged away (a sibling was dropped);
//   - MK: a single function invocation's read set (one cache) was not a
//     causal cut;
//   - DSC: a whole DAG's read set (across caches) was not a causal cut,
//     beyond what MK already flagged;
//   - DSRR: a DAG read the same key twice and saw different versions
//     without an intervening write of its own.
//
// Causality is reconstructed from the traced sessions: a write depends
// on every version its DAG had read (or written) before it. Ancestor
// queries walk that dependency graph with a bounded depth — deep chains
// add virtually no new flags but unbounded closure is quadratic in trace
// size.
package audit

import (
	"sort"

	"cloudburst/internal/executor"
)

// Write is one traced write.
type Write struct {
	ID    string
	Key   string
	ReqID string
	Seq   int
	Deps  []string // write-ids the session had seen when this was written
}

// Read is one traced read.
type Read struct {
	ReqID   string
	Fn      string
	Key     string
	WriteID string // version observed; "" for preloaded initial values
	Seq     int
}

// Recorder collects the trace. It implements executor.Tracer. The
// cooperative kernel runs one process at a time, so no locking is
// needed.
type Recorder struct {
	seq     int
	writes  map[string]*Write
	order   []*Write
	reads   []*Read
	session map[string][]string // reqID → write-ids seen so far
	// txnCommits marks requests that committed through the 2PC
	// coordinator (see txn.go); the transactional detectors only look
	// at those.
	txnCommits map[string]bool
	// MaxDepth bounds ancestor traversal (see package comment).
	MaxDepth int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		writes:   make(map[string]*Write),
		session:  make(map[string][]string),
		MaxDepth: 4,
	}
}

var _ executor.Tracer = (*Recorder)(nil)

// OnRead implements executor.Tracer.
func (r *Recorder) OnRead(ev executor.TraceEvent) {
	r.seq++
	r.reads = append(r.reads, &Read{
		ReqID: ev.ReqID, Fn: ev.Function, Key: ev.Key,
		WriteID: ev.WriteID, Seq: r.seq,
	})
	if ev.WriteID != "" {
		r.session[ev.ReqID] = appendUnique(r.session[ev.ReqID], ev.WriteID)
	}
}

// OnWrite implements executor.Tracer.
func (r *Recorder) OnWrite(ev executor.TraceEvent) {
	r.seq++
	w := &Write{
		ID: ev.WriteID, Key: ev.Key, ReqID: ev.ReqID, Seq: r.seq,
		Deps: append([]string(nil), r.session[ev.ReqID]...),
	}
	r.writes[w.ID] = w
	r.order = append(r.order, w)
	r.session[ev.ReqID] = appendUnique(r.session[ev.ReqID], w.ID)
}

func appendUnique(s []string, e string) []string {
	for _, x := range s {
		if x == e {
			return s
		}
	}
	return append(s, e)
}

// Counts reports the trace size.
func (r *Recorder) Counts() (reads, writes int) { return len(r.reads), len(r.order) }

// ancestors returns the write-ids reachable from w through Deps within
// MaxDepth hops (w excluded).
func (r *Recorder) ancestors(w *Write) map[string]*Write {
	out := make(map[string]*Write)
	frontier := []string{}
	frontier = append(frontier, w.Deps...)
	for depth := 0; depth < r.MaxDepth && len(frontier) > 0; depth++ {
		var next []string
		for _, id := range frontier {
			if _, seen := out[id]; seen {
				continue
			}
			a, ok := r.writes[id]
			if !ok {
				continue // preloaded value: terminal
			}
			out[id] = a
			next = append(next, a.Deps...)
		}
		frontier = next
	}
	return out
}

// happensBefore reports a → b through the bounded dependency graph.
func (r *Recorder) happensBefore(a, b *Write) bool {
	if a == b {
		return false
	}
	_, ok := r.ancestors(b)[a.ID]
	return ok
}

// Report is the Table 2 row: anomaly counts per consistency level. The
// causal levels accrue left to right as in the paper (MK includes SK,
// DSC includes MK); DSRR is independent.
type Report struct {
	SK   int
	MK   int
	DSC  int
	DSRR int

	// Transactional detectors (txn.go); zero unless the trace contains
	// 2PC commits.
	Torn   int // fractured reads of a committed write set
	Serial int // rw-antidependency cycles between committed txns

	// Extras are the per-level increments (MK = SK + MKExtra, ...).
	MKExtra  int
	DSCExtra int

	Reads      int
	Writes     int
	Executions int
}

// Analyze runs all four detectors over the trace.
func (r *Recorder) Analyze() Report {
	rep := Report{Reads: len(r.reads), Writes: len(r.order)}
	reqs := map[string]bool{}
	for _, rd := range r.reads {
		reqs[rd.ReqID] = true
	}
	rep.Executions = len(reqs)

	rep.SK = r.detectSK()
	mkFlagged := r.detectCausalCut(true)
	dagFlagged := r.detectCausalCut(false)
	rep.MKExtra = len(mkFlagged)
	for req := range dagFlagged {
		if !mkFlagged[req] {
			rep.DSCExtra++
		}
	}
	rep.MK = rep.SK + rep.MKExtra
	rep.DSC = rep.MK + rep.DSCExtra
	rep.DSRR = r.detectRR()
	rep.Torn = r.detectTorn()
	rep.Serial = r.detectSerial()
	return rep
}

// detectSK counts reads that observed a key while its causally-maximal
// version frontier held more than one concurrent write — i.e. LWW had
// silently dropped a concurrent update.
func (r *Recorder) detectSK() int {
	// Process reads and writes in global sequence order, maintaining
	// the per-key frontier incrementally.
	type event struct {
		seq   int
		read  *Read
		write *Write
	}
	events := make([]event, 0, len(r.reads)+len(r.order))
	for _, rd := range r.reads {
		events = append(events, event{seq: rd.Seq, read: rd})
	}
	for _, w := range r.order {
		events = append(events, event{seq: w.Seq, write: w})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].seq < events[j].seq })

	frontier := make(map[string][]*Write) // key → maximal concurrent writes
	count := 0
	for _, ev := range events {
		if ev.write != nil {
			w := ev.write
			kept := frontier[w.Key][:0]
			for _, f := range frontier[w.Key] {
				if !r.happensBefore(f, w) {
					kept = append(kept, f)
				}
			}
			frontier[w.Key] = append(kept, w)
			continue
		}
		if len(frontier[ev.read.Key]) >= 2 {
			count++
		}
	}
	return count
}

// detectCausalCut flags sessions whose read set was not a causal cut:
// the session read version wa of key a and version wb of key b, but wb
// causally depends on a *newer* version of a than wa. With perFn true
// the session is one function invocation (MK's single-cache scope);
// otherwise it is the whole DAG request (DSC's scope). Returns the set
// of flagged request ids.
func (r *Recorder) detectCausalCut(perFn bool) map[string]bool {
	type sessKey struct{ req, fn string }
	sessions := make(map[sessKey]map[string]*Read) // key → first read of key
	var orderKeys []sessKey
	for _, rd := range r.reads {
		sk := sessKey{req: rd.ReqID}
		if perFn {
			sk.fn = rd.Fn
		}
		m, ok := sessions[sk]
		if !ok {
			m = make(map[string]*Read)
			sessions[sk] = m
			orderKeys = append(orderKeys, sk)
		}
		if _, seen := m[rd.Key]; !seen {
			m[rd.Key] = rd
		}
	}
	flagged := make(map[string]bool)
	for _, sk := range orderKeys {
		if flagged[sk.req] {
			continue
		}
		m := sessions[sk]
		if len(m) < 2 {
			continue
		}
		if r.cutViolated(m) {
			flagged[sk.req] = true
		}
	}
	return flagged
}

// cutViolated checks one read set for a causal-cut violation.
func (r *Recorder) cutViolated(readSet map[string]*Read) bool {
	for _, rb := range readSet {
		if rb.WriteID == "" {
			continue
		}
		wb, ok := r.writes[rb.WriteID]
		if !ok {
			continue
		}
		anc := r.ancestors(wb)
		for _, ra := range readSet {
			if ra.Key == rb.Key {
				continue
			}
			// Does wb depend on a newer version of ra.Key than the one
			// this session read?
			var waSeq int
			if wa, ok := r.writes[ra.WriteID]; ok {
				waSeq = wa.Seq
			} // preloaded: seq 0, older than any traced write
			for _, a := range anc {
				if a.Key == ra.Key && a.Seq > waSeq {
					return true
				}
			}
		}
	}
	return false
}

// detectRR counts repeatable-read violations: within one request, two
// reads of the same key returned different versions, with no write of
// that key by the request in between.
func (r *Recorder) detectRR() int {
	type reqKey struct{ req, key string }
	lastSeen := make(map[reqKey]string) // version observed first
	writesBy := make(map[reqKey][]*Write)
	for _, w := range r.order {
		rk := reqKey{w.ReqID, w.Key}
		writesBy[rk] = append(writesBy[rk], w)
	}
	count := 0
	// Reads are already in global order (appended with increasing seq).
	for _, rd := range r.reads {
		rk := reqKey{rd.ReqID, rd.Key}
		prev, seen := lastSeen[rk]
		if !seen {
			lastSeen[rk] = rd.WriteID
			continue
		}
		if rd.WriteID == prev {
			continue
		}
		// The DAG's own write of this key legitimately changes the
		// version (the RR invariant allows "the most recent update to k
		// within the DAG").
		own := false
		for _, w := range writesBy[rk] {
			if w.ID == rd.WriteID {
				own = true
				break
			}
		}
		if own {
			lastSeen[rk] = rd.WriteID
			continue
		}
		count++
		lastSeen[rk] = rd.WriteID
	}
	return count
}
