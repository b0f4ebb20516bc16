package cache

import (
	"errors"

	"cloudburst/internal/core"
	"cloudburst/internal/lattice"
	"cloudburst/internal/trace"
)

// ErrNotFound is returned when a key exists nowhere (cache or KVS).
var ErrNotFound = errors.New("cache: key not found")

// Read performs a consistency-mode-aware read (§5.3). meta is the DAG
// session's metadata and is updated in place; it may be nil for
// single-shot reads outside a DAG. The returned VersionRef identifies
// exactly which version was read (for downstream protocol checks and the
// consistency audit).
//
// The returned payload is the capsule's own immutable buffer, shared
// with the cache (and possibly the KVS and other readers) rather than
// copied; callers must treat it as read-only.
func (c *Cache) Read(reqID, key string, meta *core.SessionMeta) ([]byte, core.VersionRef, error) {
	lat, ver, err := c.read(reqID, key, meta)
	if err != nil {
		return nil, ver, err
	}
	if cap, ok := lat.(*lattice.Causal); ok {
		return cap.DisplayValue(), ver, nil
	}
	return lat.(*lattice.LWW).Value, ver, nil
}

// read runs the mode's read protocol and returns the capsule it read,
// which ver names.
func (c *Cache) read(reqID, key string, meta *core.SessionMeta) (lattice.Lattice, core.VersionRef, error) {
	rctx := c.spans.Attach(reqID).Start("cache/read", trace.Cache, c.k.Now())
	defer func() { rctx.End(c.k.Now()) }()
	c.k.Sleep(ipc)
	if meta != nil && meta.Caches != nil {
		meta.Caches[c.ID()] = true
	}
	switch c.cfg.Mode {
	case core.LWW, core.TXN:
		// TXN's non-transactional traffic (plain invocations, result
		// storage) is ordinary last-writer-wins; transactional reads
		// bypass the cache entirely in the executor.
		return c.readLWW(rctx, key)
	case core.DSRR:
		return c.readRR(rctx, reqID, key, meta)
	case core.SK:
		return c.readSK(rctx, key)
	case core.MK:
		return c.readMK(rctx, key, meta)
	case core.DSC:
		return c.readDSC(rctx, reqID, key, meta)
	}
	return nil, core.VersionRef{}, errors.New("cache: unknown mode")
}

// readLWW is the default path: local value if cached, else fill from
// Anna. No session metadata.
func (c *Cache) readLWW(rctx trace.Ctx, key string) (lattice.Lattice, core.VersionRef, error) {
	c.mu.Lock()
	if cur, ok := c.store[key]; ok {
		l := cur.(*lattice.LWW) // immutable capsule: shared, not copied
		c.mu.Unlock()
		c.Stats.Hits++
		return l, core.VersionRef{Cache: c.ID(), TS: l.TS}, nil
	}
	c.mu.Unlock()
	c.Stats.Misses++
	lat, found, err := c.fetchFromAnna(rctx, key)
	if err != nil {
		return nil, core.VersionRef{}, err
	}
	if !found {
		return nil, core.VersionRef{}, ErrNotFound
	}
	return lat, core.VersionRef{Cache: c.ID(), TS: lat.(*lattice.LWW).TS}, nil
}

// readRR implements Algorithm 1 (distributed session repeatable read).
func (c *Cache) readRR(rctx trace.Ctx, reqID, key string, meta *core.SessionMeta) (lattice.Lattice, core.VersionRef, error) {
	if meta != nil {
		if prior, ok := meta.ReadSet[key]; ok {
			// Key previously read in this DAG: an exact version match
			// is required.
			c.mu.Lock()
			cur, hasLocal := c.store[key]
			if hasLocal {
				if cur.(*lattice.LWW).TS == prior.TS {
					c.mu.Unlock()
					c.Stats.Hits++
					return cur, prior, nil
				}
			}
			c.mu.Unlock()
			// Local version missing or different: fetch the snapshot
			// from the upstream cache that recorded it (line 5).
			lat, err := c.fetchUpstream(rctx, prior.Cache, reqID, key)
			if err != nil {
				return nil, core.VersionRef{}, err
			}
			return lat, prior, nil
		}
	}
	// First read of this key in the DAG: any available version (line 9),
	// snapshotted for the DAG's lifetime.
	c.mu.Lock()
	cur, ok := c.store[key]
	if ok {
		c.Stats.Hits++
		l := cur.(*lattice.LWW)
		c.snapshotLocked(reqID, key, l)
		ver := core.VersionRef{Cache: c.ID(), TS: l.TS}
		c.mu.Unlock()
		if meta != nil {
			meta.ReadSet[key] = ver
		}
		return l, ver, nil
	}
	c.mu.Unlock()
	c.Stats.Misses++
	lat, found, err := c.fetchFromAnna(rctx, key)
	if err != nil {
		return nil, core.VersionRef{}, err
	}
	if !found {
		return nil, core.VersionRef{}, ErrNotFound
	}
	l := lat.(*lattice.LWW)
	c.mu.Lock()
	c.snapshotLocked(reqID, key, l)
	c.mu.Unlock()
	ver := core.VersionRef{Cache: c.ID(), TS: l.TS}
	if meta != nil {
		meta.ReadSet[key] = ver
	}
	return l, ver, nil
}

// readSK is single-key causality: causal capsules with per-key vector
// clocks (siblings preserved), but no cross-key or cross-node metadata.
func (c *Cache) readSK(rctx trace.Ctx, key string) (lattice.Lattice, core.VersionRef, error) {
	c.mu.Lock()
	if cur, ok := c.store[key]; ok {
		cap := cur.(*lattice.Causal)
		ver := core.VersionRef{Cache: c.ID(), VC: cap.VC(), VCD: cap.Digest()}
		c.mu.Unlock()
		c.Stats.Hits++
		return cap, ver, nil
	}
	c.mu.Unlock()
	c.Stats.Misses++
	lat, found, err := c.fetchFromAnna(rctx, key)
	if err != nil {
		return nil, core.VersionRef{}, err
	}
	if !found {
		return nil, core.VersionRef{}, ErrNotFound
	}
	cap := lat.(*lattice.Causal)
	return cap, core.VersionRef{Cache: c.ID(), VC: cap.VC(), VCD: cap.Digest()}, nil
}

// readMK is multi-key (bolt-on) causality: the local store is maintained
// as a causal cut (fills run ensureCut), and the session's read set is
// tracked locally so writes can record their dependencies — but nothing
// is shipped across executors.
func (c *Cache) readMK(rctx trace.Ctx, key string, meta *core.SessionMeta) (lattice.Lattice, core.VersionRef, error) {
	cap, ver, err := c.readSK(rctx, key)
	if err != nil {
		return nil, ver, err
	}
	if meta != nil {
		meta.ReadSet[key] = ver
	}
	return cap, ver, nil
}

// readDSC implements Algorithm 2 (distributed session causal
// consistency): reads must not observe versions older than those read by
// upstream functions (read set) or required by their dependencies.
func (c *Cache) readDSC(rctx trace.Ctx, reqID, key string, meta *core.SessionMeta) (lattice.Lattice, core.VersionRef, error) {
	// required is the version an upstream read (the read set) or a
	// dependency of one pins the key to, if any.
	var required core.VersionRef
	pinned := false
	if meta != nil {
		if required, pinned = meta.ReadSet[key]; !pinned {
			required, pinned = meta.Deps[key]
		}
	}
	c.mu.Lock()
	cur, ok := c.store[key]
	c.mu.Unlock()
	var cap *lattice.Causal
	switch {
	case ok && (!pinned || !cur.(*lattice.Causal).VC().HappensBefore(required.VC)):
		// The local version: any for an unpinned key; for a pinned one,
		// valid when concurrent with or newer than the required version
		// snapshot (lines 4-6, 11-12).
		cap = cur.(*lattice.Causal)
		c.Stats.Hits++
	case pinned:
		// Local version is causally too old (or absent): fetch the
		// version snapshot from the upstream cache (lines 7-8, 13-14).
		lat, err := c.fetchUpstream(rctx, required.Cache, reqID, key)
		if err != nil {
			return nil, core.VersionRef{}, err
		}
		cap = lat.(*lattice.Causal)
	default:
		c.Stats.Misses++
		lat, found, err := c.fetchFromAnna(rctx, key)
		if err != nil {
			return nil, core.VersionRef{}, err
		}
		if !found {
			return nil, core.VersionRef{}, ErrNotFound
		}
		cap = lat.(*lattice.Causal)
	}

	ver := core.VersionRef{Cache: c.ID(), VC: cap.VC(), VCD: cap.Digest()}
	c.mu.Lock()
	// Snapshot the version read and the locally-held versions of its
	// dependencies, so downstream caches can fetch them (§5.3: "caches
	// upstream store version snapshots of these causal dependencies"),
	// and ship the dependencies downstream.
	c.snapshotLocked(reqID, key, cap)
	for dk, dvc := range cap.Deps() {
		if dep, ok := c.store[dk]; ok {
			c.snapshotLocked(reqID, dk, dep)
		}
		if meta == nil {
			continue
		}
		if cur, ok := meta.Deps[dk]; !ok || cur.VC.HappensBefore(dvc) {
			meta.Deps[dk] = core.VersionRef{Cache: c.ID(), VC: dvc}
		}
	}
	c.mu.Unlock()
	if meta != nil {
		meta.ReadSet[key] = ver
	}
	return cap, ver, nil
}

// ReadAll is Read but returns every concurrent sibling payload of the
// capsule the session protocol read (§5.2: applications can retrieve all
// concurrent versions and resolve updates manually — Retwis merges
// timeline siblings this way), so the version ref names exactly what it
// returns, an upstream snapshot included. In the LWW modes there is
// exactly one version. The sibling slice is the call's; the immutable
// payloads are shared.
func (c *Cache) ReadAll(reqID, key string, meta *core.SessionMeta) ([][]byte, core.VersionRef, error) {
	lat, ver, err := c.read(reqID, key, meta)
	if err != nil {
		return nil, ver, err
	}
	if cap, ok := lat.(*lattice.Causal); ok {
		return cap.Siblings(), ver, nil
	}
	return [][]byte{lat.(*lattice.LWW).Value}, ver, nil
}

// Write performs a consistency-mode-aware write: update locally,
// acknowledge, and write back to Anna asynchronously (§4.2). writerID is
// the executor thread's unique id (the vector-clock slot in causal
// modes). In the causal modes the write's dependency set is the
// session's entire read set (bolt-on tracking).
func (c *Cache) Write(reqID, key string, payload []byte, meta *core.SessionMeta, writerID string) (core.VersionRef, error) {
	return c.write(reqID, key, payload, meta, writerID, nil)
}

// WriteWithDeps is Write with explicit causality specification (Bailis
// et al.'s mitigation the paper cites in §7): only the listed keys —
// intersected with what the session actually read — become causal
// dependencies. Read-modify-write fan-out (Retwis timeline delivery)
// needs this: tracking the full read set would make every timeline
// depend on every other timeline the poster touched, and dependency
// closure would grow quadratically.
func (c *Cache) WriteWithDeps(reqID, key string, payload []byte, meta *core.SessionMeta, writerID string, depKeys []string) (core.VersionRef, error) {
	if depKeys == nil {
		depKeys = []string{}
	}
	return c.write(reqID, key, payload, meta, writerID, depKeys)
}

// write implements Write/WriteWithDeps; depKeys == nil means "all keys
// the session read".
func (c *Cache) write(reqID, key string, payload []byte, meta *core.SessionMeta, writerID string, depKeys []string) (core.VersionRef, error) {
	wctx := c.spans.Attach(reqID).Start("cache/write", trace.Cache, c.k.Now())
	defer func() { wctx.End(c.k.Now()) }()
	c.k.Sleep(ipc)
	if meta != nil && meta.Caches != nil {
		meta.Caches[c.ID()] = true
	}
	c.Stats.WritesAcked++
	var ver core.VersionRef
	var wb lattice.Lattice
	switch c.cfg.Mode {
	case core.LWW, core.DSRR, core.TXN:
		l := lattice.NewLWW(lattice.Timestamp{Clock: int64(c.k.Now()), Node: lattice.NodeHash(writerID)}, payload)
		ver = core.VersionRef{Cache: c.ID(), TS: l.TS}
		c.mu.Lock()
		c.mergeLocked(key, l)
		if c.cfg.Mode == core.DSRR {
			// The DAG's own update becomes the version downstream
			// functions must see (the RR invariant), so snapshot it and
			// replace the read-set entry.
			c.snapshotWriteLocked(reqID, key, l)
		}
		c.mu.Unlock()
		if c.cfg.Mode == core.DSRR && meta != nil {
			meta.ReadSet[key] = ver
		}
		wb = l
	case core.SK, core.MK, core.DSC:
		c.mu.Lock()
		var vc lattice.Clock
		if cur, ok := c.store[key]; ok {
			vc = cur.(*lattice.Causal).VC()
		}
		vc = vc.Tick(writerID)
		var deps lattice.Deps
		if c.cfg.Mode != core.SK && meta != nil {
			// The write causally depends on the versions this session
			// read (bolt-on dependency tracking) — restricted to the
			// explicitly-declared keys when the caller provided any. A
			// self-dependency is implied by the clock; read clocks are
			// immutable, so the set shares them.
			var b lattice.DepsBuilder
			if depKeys == nil {
				b = lattice.NewDepsBuilder(len(meta.ReadSet))
				for rk, rv := range meta.ReadSet {
					if rk != key {
						b.Add(rk, rv.VC)
					}
				}
			} else {
				b = lattice.NewDepsBuilder(len(depKeys))
				for _, dk := range depKeys {
					if rv, ok := meta.ReadSet[dk]; ok && dk != key {
						b.Add(dk, rv.VC)
					}
				}
			}
			deps = b.Deps()
		}
		cap := lattice.NewCausalClock(vc, deps, payload)
		ver = core.VersionRef{Cache: c.ID(), VC: vc}
		c.mergeLocked(key, cap)
		if c.cfg.Mode == core.DSC {
			c.snapshotWriteLocked(reqID, key, cap)
		}
		c.mu.Unlock()
		if meta != nil && c.cfg.Mode != core.SK {
			meta.ReadSet[key] = ver
		}
		wb = cap
	default:
		return ver, errors.New("cache: unknown mode")
	}
	c.writeBack(key, wb)
	return ver, nil
}
