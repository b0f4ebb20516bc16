// Package hook is a tiny named-point-cut registry for fault injection.
// Protocol code fires hooks at named points ("txn/post-prepare", ...);
// the chaos plane arms one-shot callbacks on them (fault.CrashAt) to
// crash a component at an exact protocol step instead of tuning
// virtual-time offsets by hand. A nil registry fires at zero cost, so
// production paths pay one nil check.
package hook

// Callback is one armed point-cut. It receives the entity (VM name or
// node id) that reached the hook and reports whether it fired; a fired
// callback is disarmed (one-shot).
type Callback func(entity string) bool

// Registry holds armed callbacks by hook name. Fire is a no-op on a nil
// receiver; Arm panics there (arming requires a real registry). The
// simulation kernel runs one process at a time, so no locking is needed.
type Registry struct {
	armed map[string][]Callback
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{armed: make(map[string][]Callback)} }

// Arm installs a one-shot callback on the named hook. Multiple
// callbacks may be armed on one hook; they fire in arm order.
func (r *Registry) Arm(name string, cb Callback) {
	r.armed[name] = append(r.armed[name], cb)
}

// Fire invokes the hook's armed callbacks for entity. It returns true
// if any callback fired (the conventional meaning: the firing crashed
// this entity, and the caller should stop as if the process died at
// this exact point). Fired callbacks are disarmed.
func (r *Registry) Fire(name, entity string) bool {
	if r == nil {
		return false
	}
	cbs := r.armed[name]
	if len(cbs) == 0 {
		return false
	}
	hit := false
	kept := cbs[:0]
	for _, cb := range cbs {
		if !hit && cb(entity) {
			hit = true
			continue // disarm
		}
		kept = append(kept, cb)
	}
	if len(kept) == 0 {
		delete(r.armed, name)
	} else {
		r.armed[name] = kept
	}
	return hit
}
