package executor

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"cloudburst/internal/cache"
	"cloudburst/internal/codec"
	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
	"cloudburst/internal/vtime"
)

// Ctx is the per-invocation handle passed to user functions: the Table 1
// object API. KVS operations go through the VM's co-located cache with
// the session's consistency protocol; send/recv do direct
// executor-to-executor messaging with the Anna inbox as the fallback
// channel (§3). It is valid until the function returns: each thread owns
// one Ctx, fills it in for each invocation and zeroes it on return.
type Ctx struct {
	t    *Thread
	req  string // DAG request id (session scope)
	dag  string
	fn   string
	seq  int64  // the thread's count of invocations, this one included
	id   string // this invocation's unique id, spelt out by ID on first use
	meta *core.SessionMeta
	// txn, when non-nil, makes this a transactional invocation: writes
	// are staged instead of hitting the cache, reads record base
	// versions and come straight from Anna (a stale cached base would
	// abort the commit every retry), and nothing is visible anywhere
	// until the thread's coordinator commits at the end.
	txn *txnState

	writeSeq int
	// seenInbox dedups messages consumed from the Anna inbox (the inbox
	// is a grow-only set lattice).
	seenInbox map[string]bool
}

// ID returns the invocation's unique id (Table 1 get_id), "thread#seq",
// where seq counts every invocation the thread has run, this one
// included. Advertise it under a well-known key so peers can send you
// messages. The string is built on the first call, so an invocation that
// never asks for its id pays nothing for it.
func (c *Ctx) ID() string {
	if c.id == "" {
		c.id = core.MakeInvocationID(c.t.id, c.seq)
	}
	return c.id
}

// ReqID returns the DAG request id this invocation belongs to.
func (c *Ctx) ReqID() string { return c.req }

// Now returns the current virtual time.
func (c *Ctx) Now() vtime.Time { return c.t.k.Now() }

// Rand returns the kernel's deterministic random source.
func (c *Ctx) Rand() *rand.Rand { return c.t.k.Rand() }

// Compute occupies the executor thread for d of simulated CPU time; use
// it to model function work (the 50ms sleep of §6.1.4, model inference
// in §6.3.1, ...).
func (c *Ctx) Compute(d time.Duration) { c.t.k.Sleep(d) }

// Get retrieves a key through the cache under the session's consistency
// level. found is false when the key exists nowhere.
func (c *Ctx) Get(key string) (val any, found bool, err error) {
	if c.txn != nil {
		return c.txnGet(key)
	}
	payload, ver, err := c.t.cache.Read(c.req, key, c.meta)
	if err == cache.ErrNotFound {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	writeID, inner := untag(payload)
	if c.t.tracer != nil {
		c.t.tracer.OnRead(TraceEvent{
			ReqID: c.req, DAG: c.dag, Function: c.fn, Key: key,
			WriteID: writeID, Ver: ver, Cache: ver.Cache, At: c.t.k.Now(),
		})
	}
	v, err := c.t.decodeVersioned(key, ver, inner)
	if err != nil {
		return nil, true, err
	}
	return v, true, nil
}

// GetSiblings retrieves all concurrent versions of a key through the
// cache (causal modes let applications resolve conflicts manually, §5.2
// — Retwis merges timeline siblings this way), those of the capsule the
// session protocol read; the first, Get's value, decodes through Get's
// memo. LWW modes return the single current value, missing keys nothing.
func (c *Ctx) GetSiblings(key string) ([]any, error) {
	payloads, ver, err := c.t.cache.ReadAll(c.req, key, c.meta)
	if err == cache.ErrNotFound {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out := make([]any, 0, len(payloads))
	for i, p := range payloads {
		writeID, inner := untag(p)
		if c.t.tracer != nil {
			c.t.tracer.OnRead(TraceEvent{
				ReqID: c.req, DAG: c.dag, Function: c.fn, Key: key,
				WriteID: writeID, Ver: ver, Cache: ver.Cache, At: c.t.k.Now(),
			})
		}
		named := ver // only the first sibling is memoized under ver
		if i > 0 {
			named = core.VersionRef{}
		}
		v, err := c.t.decodeVersioned(key, named, inner)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Put stores a value through the cache (locally acknowledged, written
// back to Anna asynchronously). In causal modes the write depends on
// everything the session has read so far.
func (c *Ctx) Put(key string, val any) error {
	return c.put(key, val, nil)
}

// PutWithDeps stores a value whose causal dependencies are exactly the
// listed keys (those the session actually read). This is explicit
// causality specification (§7 cites it as the dependency-metadata
// mitigation): use it for read-modify-write fan-out where depending on
// the whole read set would be semantically wrong and quadratically
// expensive.
func (c *Ctx) PutWithDeps(key string, val any, deps ...string) error {
	if deps == nil {
		deps = []string{}
	}
	return c.put(key, val, deps)
}

func (c *Ctx) put(key string, val any, deps []string) error {
	payload, err := codec.Encode(val)
	if err != nil {
		return err
	}
	writeID := ""
	if c.t.tracer != nil {
		c.writeSeq++
		writeID = c.ID() + "/w" + strconv.Itoa(c.writeSeq)
		payload = tagPayload(writeID, payload)
	}
	if c.txn != nil {
		// Staged, not written: the audit's OnWrite fires at commit time
		// (the write only ever becomes visible if the commit decides),
		// recovering the write id from the tagged payload.
		c.txn.stage(key, payload, val)
		return nil
	}
	var ver core.VersionRef
	if deps == nil {
		ver, err = c.t.cache.Write(c.req, key, payload, c.meta, string(c.t.id))
	} else {
		ver, err = c.t.cache.WriteWithDeps(c.req, key, payload, c.meta, string(c.t.id), deps)
	}
	if err != nil {
		return err
	}
	if c.t.tracer != nil {
		c.t.tracer.OnWrite(TraceEvent{
			ReqID: c.req, DAG: c.dag, Function: c.fn, Key: key,
			WriteID: writeID, Ver: ver, Cache: ver.Cache, At: c.t.k.Now(),
		})
	}
	return nil
}

// txnGet is the transactional read path: staged writes are returned
// directly (read-your-writes), everything else is read from Anna with
// the observed base version recorded for prepare-time validation.
func (c *Ctx) txnGet(key string) (any, bool, error) {
	if sw, ok := c.txn.staged[key]; ok {
		if !sw.decoded {
			_, inner := untag(sw.payload)
			v, err := codec.Decode(inner)
			if err != nil {
				return nil, true, err
			}
			sw.val, sw.decoded = v, true
		}
		return sw.val, true, nil
	}
	lat, found, err := c.t.annaClient.Get(key)
	if err != nil {
		return nil, false, err
	}
	if !found {
		c.txn.observeRead(key, false, lattice.Timestamp{})
		return nil, false, nil
	}
	l, ok := lat.(*lattice.LWW)
	if !ok {
		return nil, false, fmt.Errorf("executor: txn read of %q: %s capsule", key, lat.TypeName())
	}
	c.txn.observeRead(key, true, l.TS)
	writeID, inner := untag(l.Value)
	ver := core.VersionRef{TS: l.TS}
	if c.t.tracer != nil {
		c.t.tracer.OnRead(TraceEvent{
			ReqID: c.req, DAG: c.dag, Function: c.fn, Key: key,
			WriteID: writeID, Ver: ver, At: c.t.k.Now(),
		})
	}
	v, err := c.t.decodeVersioned(key, ver, inner)
	if err != nil {
		return nil, true, err
	}
	return v, true, nil
}

// Hook fires the cluster's fault-injection point-cut registry at a
// named point inside user code, with this VM as the entity. It returns
// true when a CrashAt point-cut fired — the VM is dead at this exact
// instruction, and the function should stop (whatever it does next is
// lost anyway: its endpoints are down). A cluster without armed hooks
// pays one map lookup.
func (c *Ctx) Hook(name string) bool { return c.t.hooks.Fire(name, c.t.vm) }

// Delete removes a key from the cache and the KVS.
func (c *Ctx) Delete(key string) error { return c.t.cache.Delete(key) }

// CachedLocally reports whether key is present in this VM's co-located
// cache without falling through to the KVS. In the causal modes the
// cache's causal-cut maintenance guarantees that a cached value's
// dependencies are cached too; this probe is how the Retwis experiment
// detects "a reply without its original tweet" (§6.3.2).
func (c *Ctx) CachedLocally(key string) bool {
	c.t.k.Sleep(c.t.cache.IPC())
	return c.t.cache.Contains(key)
}

// Send delivers msg to another function invocation by its unique ID. The
// ID maps deterministically to an executor-thread address; if that
// thread is unreachable the message is written to the recipient's Anna
// inbox instead (§3).
func (c *Ctx) Send(recvID string, msg any) error {
	payload, err := codec.Encode(msg)
	if err != nil {
		return err
	}
	thread, ok := core.SplitInvocationID(recvID)
	if !ok {
		return fmt.Errorf("executor: malformed recipient id %q", recvID)
	}
	dm := core.DirectMessage{FromID: c.ID(), Body: payload}
	if c.t.alive == nil || c.t.alive(thread) {
		c.t.ep.Send(thread, dm, 32+len(payload))
		return nil
	}
	// TCP unavailable: write to the recipient's inbox key in Anna.
	elem := c.ID() + "\x00" + string(payload)
	return c.t.annaClient.Put(core.InboxKey(recvID), lattice.NewSet(elem))
}

// Recv returns the messages queued for this invocation: first anything
// that arrived on the local "TCP port" (the thread's endpoint), then, if
// none, the Anna inbox (§3).
func (c *Ctx) Recv() ([]any, error) {
	c.t.drainNetwork()
	if len(c.t.mailbox) > 0 {
		msgs := c.t.mailbox
		c.t.mailbox = nil
		out := make([]any, 0, len(msgs))
		for _, m := range msgs {
			v, err := codec.Decode(m.Body)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	// Fall back to the storage inbox.
	lat, found, err := c.t.annaClient.Get(core.InboxKey(c.ID()))
	if err != nil || !found {
		return nil, err
	}
	set, ok := lat.(*lattice.Set)
	if !ok {
		return nil, fmt.Errorf("executor: inbox holds %s", lat.TypeName())
	}
	if c.seenInbox == nil {
		c.seenInbox = make(map[string]bool)
	}
	var out []any
	for _, e := range set.Elems() {
		if c.seenInbox[e] {
			continue
		}
		c.seenInbox[e] = true
		// Element format: senderID \x00 payload.
		payload := e
		for i := 0; i < len(e); i++ {
			if e[i] == 0 {
				payload = e[i+1:]
				break
			}
		}
		v, err := codec.Decode([]byte(payload))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// RecvWait blocks until at least one message is available or the timeout
// elapses, polling the inbox fallback at pollEvery. It is a convenience
// for protocol code (the paper's gossip example busy-polls recv).
func (c *Ctx) RecvWait(timeout, pollEvery time.Duration) ([]any, error) {
	deadline := c.t.k.Now().Add(timeout)
	for {
		msgs, err := c.Recv()
		if err != nil || len(msgs) > 0 {
			return msgs, err
		}
		if c.t.k.Now() >= deadline {
			return nil, nil
		}
		c.t.k.Sleep(pollEvery)
	}
}
