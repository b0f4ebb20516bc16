// Package core defines the shared vocabulary of the Cloudburst runtime:
// consistency modes, the wire protocol between clients, schedulers,
// executors, and caches, the distributed-session metadata that travels
// along DAG executions (§5.3), and the well-known Anna keys used for
// system metadata (§4.4).
package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"cloudburst/internal/codec"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
)

// Mode selects the cache-consistency level (§5, §6.2).
type Mode int

// The five consistency levels evaluated in the paper.
const (
	// LWW is last-writer-wins eventual consistency, the default capsule.
	LWW Mode = iota
	// DSRR is distributed session repeatable read (Algorithm 1).
	DSRR
	// SK is single-key causality: per-key vector clocks, siblings kept.
	SK
	// MK is multi-key (bolt-on) causality: each cache holds a causal cut.
	MK
	// DSC is distributed session causal consistency (Algorithm 2).
	DSC
	// TXN is the transactional mode: LWW capsules plus atomic multi-key
	// commit for requests invoked with the Txn option (internal/txn's
	// two-phase commit across Anna owners).
	TXN
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case LWW:
		return "lww"
	case DSRR:
		return "dsrr"
	case SK:
		return "sk"
	case MK:
		return "mk"
	case DSC:
		return "dsc"
	case TXN:
		return "txn"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode converts a mode name to a Mode.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "lww":
		return LWW, nil
	case "dsrr", "rr":
		return DSRR, nil
	case "sk":
		return SK, nil
	case "mk":
		return MK, nil
	case "dsc", "causal":
		return DSC, nil
	case "txn":
		return TXN, nil
	}
	return 0, fmt.Errorf("core: unknown consistency mode %q", s)
}

// Causal reports whether the mode stores causal capsules (vs LWW).
func (m Mode) Causal() bool { return m == SK || m == MK || m == DSC }

// Arg is one function argument: either an inline serialized value or a
// KVS reference resolved through the cache at execution time (§3).
type Arg struct {
	Ref string // key name when this is a CloudburstReference
	Val []byte // codec-encoded literal otherwise
}

// IsRef reports whether the argument is a KVS reference.
func (a Arg) IsRef() bool { return a.Ref != "" }

// ArgBytes is the wire footprint of a request's arguments.
func ArgBytes(args []Arg) (n int) {
	for _, a := range args {
		n += len(a.Val) + len(a.Ref)
	}
	return n
}

// VersionRef names the exact version of a key that an upstream function
// read, and which cache holds its snapshot. It is the per-key unit of the
// read-set metadata shipped down the DAG. A VersionRef is a value: its
// clock is immutable and shared with the capsule it was read from.
type VersionRef struct {
	Cache simnet.NodeID     // cache holding the version snapshot
	TS    lattice.Timestamp // LWW version id (repeatable read)
	VC    lattice.Clock     // causal version id
	// VCD is the canonical digest of the capsule the version was read
	// from (lattice.Causal.Digest): a comparable stand-in for the clock
	// set, naming a causal version in the cluster's decode cache.
	VCD uint64
}

// SessionMeta is the distributed-session metadata propagated from
// upstream to downstream executors (§5.3): the versions read so far and,
// in causal mode, their dependency sets. A session that rides a DSRR or
// DSC DAG's triggers is the request's own; one that ends with its
// invocation (a bare invocation's, an MK DAG function's) is the executor
// thread's, emptied and reused for the thread's next invocation, so
// nothing may keep its maps past the invocation.
type SessionMeta struct {
	// ReadSet maps each key read so far in the DAG to the version that
	// was read (R in Algorithms 1 and 2).
	ReadSet map[string]VersionRef
	// Deps maps keys to the version lower-bounds required by causal
	// dependencies of the read set ("dependencies" in Algorithm 2).
	// Each entry also records which cache snapshotted a satisfying
	// version.
	Deps map[string]VersionRef
	// Caches records every cache the session touched, so the sink can
	// notify all of them on completion and version snapshots get
	// evicted (Algorithm 1's cleanup).
	Caches map[simnet.NodeID]bool
}

// NewSessionMeta returns empty, initialized metadata.
func NewSessionMeta() SessionMeta {
	return SessionMeta{
		ReadSet: make(map[string]VersionRef),
		Deps:    make(map[string]VersionRef),
		Caches:  make(map[simnet.NodeID]bool),
	}
}

// NewSessionMetaP returns a pointer to fresh metadata (convenience for
// single-shot sessions).
func NewSessionMetaP() *SessionMeta {
	m := NewSessionMeta()
	return &m
}

// Size estimates the metadata's serialized footprint in bytes — the
// overhead the consistency-model experiments in §6.2.1 measure. It is 0
// for the zero and the empty SessionMeta alike.
func (s SessionMeta) Size() int {
	n := 0
	for k, v := range s.ReadSet {
		n += len(k) + len(v.Cache) + 16 + v.VC.ByteSize()
	}
	for k, v := range s.Deps {
		n += len(k) + len(v.Cache) + 16 + v.VC.ByteSize()
	}
	return n
}

// InvokeRequest asks a scheduler (and then an executor) to run a single
// registered function. The scheduler forwards it unchanged, so the
// executor sends the request's RequestComplete to the message's sender:
// the scheduler that tracks it (§4.5).
//
// ReqID is also the tracing plane's correlation key: components
// re-attach spans to the collector under it (internal/trace). Wire
// structs like this one must never grow trace fields — tracing is
// CPU-side only, so traced and untraced runs stay byte-identical.
type InvokeRequest struct {
	ReqID      string
	Function   string
	Args       []Arg
	RespondTo  simnet.NodeID // where the Result goes
	Deadline   time.Duration // client timeout; drives scheduler re-execution when lost
	StoreInKVS bool          // persist the result in the KVS under ResultKey
	WantHops   bool          // report the executor hop count in the Result
	Txn        bool          // buffer writes and commit atomically (internal/txn)
	ResultKey  string
}

// TxnWrite is one entry of a transactional request's buffered write
// set: the key, its LWW-encapsulated payload, and the base version the
// transaction observed when it read the key (used for optimistic
// validation at prepare time). ReadOnly entries carry no payload and
// only validate; Blind entries were written without a prior read and
// skip validation.
type TxnWrite struct {
	Key         string
	Payload     []byte
	ReadOnly    bool
	Blind       bool
	BasePresent bool  // the observed base version existed
	BaseClock   int64 // observed LWW timestamp (when BasePresent)
	BaseNode    uint64
}

// WireSize estimates the entry's simulated wire footprint.
func (w TxnWrite) WireSize() int { return 32 + len(w.Key) + len(w.Payload) }

// DAGSchedule is the per-request execution plan a scheduler builds for a
// registered DAG: one executor-thread assignment per function (§4.3),
// indexed by the function's position in the DAG's Functions, so routing a
// hop reads a slice, never a name. Schedules are immutable after creation
// and shared by reference.
type DAGSchedule struct {
	ReqID       string
	DAG         string
	Assignments []simnet.NodeID // by function position -> executor thread
	Args        []FnArgs        // client-supplied args, sorted by function name
	RespondTo   simnet.NodeID
	Scheduler   simnet.NodeID // tracks the request (§4.5); receives its RequestComplete; a bare invoke's is its InvokeRequest's sender
	StoreInKVS  bool
	WantHops    bool // report the executor hop count in the Result
	Txn         bool // commit the DAG's write set atomically at the sink
	ResultKey   string
}

// FnArgs is one DAG function's client-supplied arguments. A request
// carries them as one slice sorted by Fn (SortFnArgs), so every layer
// meets them, and encodes them, in function-name order.
type FnArgs struct {
	Fn   string
	Args []Arg
}

// SortFnArgs puts a request's argument list in function-name order.
func SortFnArgs(list []FnArgs) {
	slices.SortFunc(list, func(a, b FnArgs) int { return strings.Compare(a.Fn, b.Fn) })
}

// ArgsFor returns fn's arguments from a list sorted by SortFnArgs, or nil
// when the client supplied none.
func ArgsFor(list []FnArgs, fn string) []Arg {
	i, ok := slices.BinarySearchFunc(list, fn, func(a FnArgs, fn string) int { return strings.Compare(a.Fn, fn) })
	if !ok {
		return nil
	}
	return list[i].Args
}

// DAGTrigger starts (or continues) a DAG execution at Target, a function
// position in the DAG, on the executor the schedule assigns to it. The
// name is the DAG's Functions[Target], resolved where it is needed: the
// function registry, tracing, and audit events.
type DAGTrigger struct {
	Schedule *DAGSchedule
	Target   int
	Input    []byte // function Target-1's codec-encoded result; nil at function 0
	Meta     SessionMeta
	// Hops counts executor transitions so far, reported in the Result
	// for per-depth latency normalization (Figure 8).
	Hops int
	// TxnWrites carries a transactional DAG's buffered write set down
	// the DAG (committed at the last function). Empty unless the request
	// was invoked with the Txn option, so non-txn runs stay
	// byte-identical.
	TxnWrites []TxnWrite
}

// TxnWritesSize sums the simulated wire footprint of a carried write
// set (zero for non-transactional triggers).
func TxnWritesSize(ws []TxnWrite) int {
	n := 0
	for _, w := range ws {
		n += w.WireSize()
	}
	return n
}

// Result is the terminal response for an invocation or DAG request.
type Result struct {
	ReqID     string
	Val       []byte
	Err       string
	ResultKey string // set when the value was stored in the KVS instead
	// Hops counts executor-to-executor transitions, used to normalize
	// latency by DAG depth as Figure 8 does.
	Hops int
}

// OK reports whether the execution succeeded.
func (r Result) OK() bool { return r.Err == "" }

// PinFunction tells an executor VM to load (cache) a function so it can
// serve DAG invocations for it (§4.1, §4.4).
type PinFunction struct {
	Function string
}

// UnpinFunction releases a pinned function replica.
type UnpinFunction struct {
	Function string
}

// DAGDone tells upstream caches that a DAG request completed so version
// snapshots can be evicted (Algorithm 1's sink notification).
type DAGDone struct {
	ReqID string
}

// RequestComplete is the one completion notice of §4.5: the executor on
// which a request ends — a bare invocation's, a DAG's sink, or wherever a
// DAG function failed — tells the scheduler tracking the request that the
// client has its Result, clearing the re-execution record. Fire-and-forget.
type RequestComplete struct {
	ReqID string
}

// DirectMessage is executor-to-executor communication (Table 1 send/recv).
type DirectMessage struct {
	Body []byte
}

// WarmSeed is a dead VM generation's working-set record, written to Anna
// when the cluster kills (or drains) a VM: the keys its cache held and
// the functions its threads had pinned. A warm replacement reads the
// seed and restores its cache from a live peer's snapshots before
// serving (FireCamp-style membership+state handoff), falling back to
// cold refault for keys no peer holds.
type WarmSeed struct {
	VM      string   // logical VM name (generation-independent)
	Keys    []string // cache working set at death
	Pinned  []string // pinned functions at death (from the monitor's view)
	DiedAtS float64  // virtual seconds, for staleness checks
}

// ExecutorMetrics is what each executor thread periodically publishes to
// Anna (§4.1): utilization, pinned functions, and completion stats.
type ExecutorMetrics struct {
	Thread      simnet.NodeID
	VM          string
	Utilization float64 // busy fraction over the reporting window
	Pinned      []string
	Completed   int64   // requests finished since start
	AvgLatencyS float64 // mean execution latency over the window, seconds
	ReportedAtS float64 // virtual seconds, for staleness checks
}

// CacheMetrics is each VM cache's periodically-published key set (§4.2).
// A decoded report's Keys views its capsule's payload in place.
type CacheMetrics struct {
	VM          string
	Cache       simnet.NodeID
	Keys        codec.StrList
	ReportedAtS float64
}

// SchedulerMetrics is each scheduler's published per-DAG call counts.
type SchedulerMetrics struct {
	Scheduler   simnet.NodeID
	DAGCalls    map[string]int64
	FnCalls     map[string]int64
	ReportedAtS float64
}

// DecodeCache memoizes decoded payloads, one entry per key: the latest
// version decoded, named by its LWW timestamp or, for a causal capsule,
// by its digest (lattice.Causal.Digest) with a zero timestamp. Either
// names one payload forever, so an entry never invalidates; another
// version decodes and replaces it.
//
// One cache serves a cluster's two planes. The control plane (schedulers,
// the monitor, the DAG resolver) reads through Fetch and FetchAll,
// executor threads through DecodeVersion, so a version is decoded once
// per cluster. Sharing is sound: the control plane reads
// only system keys, written untagged, and executors decode what untag
// returns, which for an untagged payload is the payload itself, so both
// planes decode the same bytes. Decoded values are shared read-only, the
// convention the zero-copy payloads follow. The kernel runs one party at
// a time, so no locking is needed.
type DecodeCache struct {
	m map[string]decodedVersion
}

// decodeMax bounds a DecodeCache's entries; adding a key to a full cache
// empties it first. It is above the distinct keys any benchmark workload
// or quick experiment decodes (autoscale-spike about 8,000, quick fig7
// about 27,000), so only paper-size runs reset.
const decodeMax = 1 << 16

// decodedVersion is a key's latest decoded version.
type decodedVersion struct {
	ts  lattice.Timestamp
	vcd uint64
	v   any
}

// NewDecodeCache returns an empty cache.
func NewDecodeCache() *DecodeCache {
	return &DecodeCache{m: make(map[string]decodedVersion)}
}

// DecodeVersion returns payload, the bytes of key's version (ts, vcd),
// decoded through the cache: a hit allocates nothing.
func (c *DecodeCache) DecodeVersion(key string, ts lattice.Timestamp, vcd uint64, payload []byte) (any, error) {
	e, ok := c.m[key]
	if ok && e.ts == ts && e.vcd == vcd {
		return e.v, nil
	}
	v, err := codec.Decode(payload)
	if err != nil {
		return nil, err
	}
	if !ok && len(c.m) >= decodeMax {
		clear(c.m)
	}
	c.m[key] = decodedVersion{ts: ts, vcd: vcd, v: v}
	return v, nil
}

// Reader is the read half of an Anna client (*anna.Client): what the
// control plane needs to read system metadata. MultiGet fills the
// caller's found, aligned with keys, and returns the keys it missed.
type Reader interface {
	Get(key string) (lattice.Lattice, bool, error)
	MultiGet(keys []string, found ...lattice.Lattice) ([]string, error)
}

// decodeAs returns the payload of key's capsule lat as a T, decoded
// through c; false when lat is not an LWW capsule or its payload does not
// decode to a T.
func decodeAs[T any](c *DecodeCache, key string, lat lattice.Lattice) (T, bool) {
	var t T
	l, ok := lat.(*lattice.LWW)
	if !ok {
		return t, false
	}
	v, err := c.DecodeVersion(key, l.TS, 0, l.Value)
	if err != nil {
		return t, false
	}
	t, ok = v.(T)
	return t, ok
}

// Fetch reads key with one Get and returns its payload as a T, decoded
// through c: how the control plane reads a DAG topology or a warm seed.
func Fetch[T any](kv Reader, c *DecodeCache, key string) (T, bool) {
	lat, found, err := kv.Get(key)
	if err != nil || !found {
		var t T
		return t, false
	}
	return decodeAs[T](c, key, lat)
}

// FetchAll reads keys with one grouped multi-get into results of its own
// and returns, in key order, the payloads that decode to a T through c.
// A key the grouped read misses (replication lag at its primary) or whose
// capsule holds anything else is skipped: the next read picks it up.
func FetchAll[T any](kv Reader, c *DecodeCache, keys []string) []T {
	if len(keys) == 0 {
		return nil
	}
	got := make([]lattice.Lattice, len(keys))
	if _, err := kv.MultiGet(keys, got...); err != nil {
		return nil
	}
	out := make([]T, 0, len(got))
	for i, key := range keys {
		if v, ok := decodeAs[T](c, key, got[i]); ok {
			out = append(out, v)
		}
	}
	return out
}

// Registry reads one metrics registry: the Set of member keys stored
// under ListKey, one LWW capsule per member (executor, cache and
// scheduler metrics). It keeps the last Set's members, already sorted,
// so a read neither sorts nor allocates.
type Registry struct {
	ListKey string
	keys    []string
}

// Keys returns the registry's members, sorted; nil when the listing is
// unreadable or empty. When expected (sorted) is non-empty and equals
// the last list, the listing read itself is skipped: a caller that knows
// the membership without Anna pays no read while it is unchanged, and
// any mismatch (a cold list, registrations still propagating, ghost keys
// awaiting the reaper) keeps the listing read flowing.
func (r *Registry) Keys(kv Reader, expected []string) []string {
	if len(expected) > 0 && slices.Equal(r.keys, expected) {
		return r.keys
	}
	lat, found, err := kv.Get(r.ListKey)
	if err != nil || !found {
		return nil
	}
	set, ok := lat.(*lattice.Set)
	if !ok {
		return nil
	}
	r.keys = set.Elems()
	return r.keys
}

// Well-known Anna key constructors for system metadata (§4.4: "Anna as
// the source of truth for system metadata").
func FuncKey(name string) string          { return "sys/funcs/" + name }
func DAGKey(name string) string           { return "sys/dags/" + name }
func FuncListKey() string                 { return "sys/funcs" }
func DAGListKey() string                  { return "sys/dags" }
func ExecMetricsKey(thread string) string { return "sys/metrics/exec/" + thread }
func CacheKeysKey(vm string) string       { return "sys/metrics/cache/" + vm }
func SchedMetricsKey(id string) string    { return "sys/metrics/sched/" + id }
func WarmSeedKey(vm string) string        { return "sys/lifecycle/seed/" + vm }
func InboxKey(invocationID string) string { return "sys/inbox/" + invocationID }
func TxnLogKey(reqID string) string       { return "sys/txn/" + reqID }

// SplitInvocationID recovers the executor-thread address from a function
// invocation ID. IDs have the form "<thread-node-id>#<sequence>"; the
// deterministic mapping from unique ID to a physical address is how
// direct messaging resolves recipients (§3).
func SplitInvocationID(id string) (thread simnet.NodeID, ok bool) {
	if i := strings.IndexByte(id, '#'); i > 0 {
		return simnet.NodeID(id[:i]), true
	}
	return "", false
}

// MakeInvocationID builds an invocation ID for a thread and sequence
// number.
func MakeInvocationID(thread simnet.NodeID, seq int64) string {
	return string(thread) + "#" + strconv.FormatInt(seq, 10)
}
