// Package executor implements Cloudburst's function executors (§4.1):
// long-running worker threads packed into VMs alongside a co-located
// cache. Threads serve single-function invocations and DAG triggers,
// resolve KVS-reference arguments through the cache, propagate results
// and distributed-session metadata to downstream DAG functions, expose
// the Table 1 object API (get/put/send/recv/get_id; delete is not
// offered, see Ctx) to user code, and periodically publish utilization
// and pinned-function metrics to Anna.
package executor

import (
	"fmt"

	"cloudburst/internal/core"
)

// Function is a registered Cloudburst function body. The paper ships
// cloudpickled Python; Go cannot serialize closures, so bodies live in
// this process-wide registry while function *metadata* (existence,
// pinning, DAG topology) still flows through Anna as the source of truth.
// The ctx and the args slice belong to the call: the executor thread
// clears both when it returns and reuses them for its next invocation,
// so neither may be kept (the argument values themselves may).
type Function func(ctx *Ctx, args []any) (any, error)

// Registry is the cluster-wide function table shared by all executors.
type Registry struct {
	fns map[string]Function
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fns: make(map[string]Function)} }

// Register installs fn under name, replacing any previous body.
func (r *Registry) Register(name string, fn Function) { r.fns[name] = fn }

// Lookup resolves a function body.
func (r *Registry) Lookup(name string) (Function, bool) {
	fn, ok := r.fns[name]
	return fn, ok
}

// TraceEvent is one read or write observed by the consistency audit
// (§6.2.2): which DAG request, function, and key, which exact version,
// and the write-id tag recovered from the payload.
type TraceEvent struct {
	ReqID    string
	Function string
	Key      string
	WriteID  string // tag of the value written, or of the value read
	Ver      core.VersionRef
}

// Tracer observes executor reads/writes. Implementations must be cheap
// and must not block; the audit recorder in internal/audit is the only
// production implementation.
type Tracer interface {
	OnRead(ev TraceEvent)
	OnWrite(ev TraceEvent)
}

// tagMagic frames audited payloads so reads can recover the write-id.
const tagMagic = 0x7A

// tagPayload prefixes p with writeID framing.
func tagPayload(writeID string, p []byte) []byte {
	out := make([]byte, 0, 3+len(writeID)+len(p))
	out = append(out, tagMagic, byte(len(writeID)>>8), byte(len(writeID)))
	out = append(out, writeID...)
	return append(out, p...)
}

// Untag recovers (writeID, payload) from a possibly-audit-tagged
// payload; untagged payloads pass through with an empty id. Exported for
// the client API and the audit recorder.
func Untag(p []byte) (string, []byte) { return untag(p) }

// untag recovers (writeID, payload); untagged payloads pass through.
func untag(p []byte) (string, []byte) {
	if len(p) < 3 || p[0] != tagMagic {
		return "", p
	}
	n := int(p[1])<<8 | int(p[2])
	if len(p) < 3+n {
		return "", p
	}
	return string(p[3 : 3+n]), p[3+n:]
}

// fnError wraps a user-function failure with its context.
func fnError(fn string, err error) error {
	return fmt.Errorf("executor: function %q: %w", fn, err)
}
