package anna

// Traced client entry points. These wrappers time the underlying KVS
// round trips on the virtual clock and record them as KVS-category
// spans on the caller's trace context. They exist so callers that hold
// a trace.Ctx (caches, schedulers, executors) can attribute Anna time
// without the client growing any mutable tracing state: a zero Ctx
// makes each wrapper exactly its plain counterpart, and nothing here
// touches the wire — the RPCs issued are byte-identical either way.

import (
	"cloudburst/internal/lattice"
	"cloudburst/internal/trace"
)

// GetT is Get with the round trip recorded as an "anna/get" span.
func (c *Client) GetT(ctx trace.Ctx, key string) (lattice.Lattice, bool, error) {
	if !ctx.Enabled() {
		return c.Get(key)
	}
	t0 := c.kv.k.Now()
	lat, found, err := c.Get(key)
	ctx.Record("anna/get", trace.KVS, t0, c.kv.k.Now())
	return lat, found, err
}

// MultiGetT is MultiGet with the grouped fan-out recorded as an
// "anna/multiget" span.
func (c *Client) MultiGetT(ctx trace.Ctx, keys []string) ([]lattice.Lattice, []string, error) {
	if !ctx.Enabled() {
		return c.MultiGet(keys)
	}
	t0 := c.kv.k.Now()
	found, missing, err := c.MultiGet(keys)
	ctx.Record("anna/multiget", trace.KVS, t0, c.kv.k.Now())
	return found, missing, err
}

// PutT is Put with the round trip recorded as an "anna/put" span.
func (c *Client) PutT(ctx trace.Ctx, key string, lat lattice.Lattice) error {
	if !ctx.Enabled() {
		return c.Put(key, lat)
	}
	t0 := c.kv.k.Now()
	err := c.Put(key, lat)
	ctx.Record("anna/put", trace.KVS, t0, c.kv.k.Now())
	return err
}
