package anna

import (
	"slices"
	"sort"
	"strings"

	"cloudburst/internal/lattice"
	"cloudburst/internal/vtime"
)

// dirtyKind names a background tick that propagates changed entries.
type dirtyKind int

const (
	forRepl    dirtyKind = iota // changed since the last gossip round
	forPush                     // changed since the last cache-push round
	dirtyKinds                  // count
)

// entry is one stored key on a node.
type entry struct {
	key        string
	lat        lattice.Lattice
	size       int
	lastAccess vtime.Time
	dirty      [dirtyKinds]bool // set by markDirty, cleared by drainDirty
}

// tieredStore is a node's two-tier storage: a bounded memory tier with
// LRU demotion to an unbounded disk tier (the EBS volume of Anna's
// flash/disk tier, folded into the node — the behaviour Cloudburst
// depends on is only the latency difference and capacity pressure).
type tieredStore struct {
	mem         map[string]*entry
	disk        map[string]*entry
	memBytes    int
	memCapacity int // 0 = unbounded

	// dirty queues, per tick, the entries whose flag rose since that tick
	// last ran, so a tick costs what changed and not what is resident.
	dirty [dirtyKinds][]*entry
}

func newTieredStore(memCapacity int) *tieredStore {
	return &tieredStore{
		mem:         make(map[string]*entry),
		disk:        make(map[string]*entry),
		memCapacity: memCapacity,
	}
}

// get returns the entry for key and whether it was served from disk
// (and therefore promoted, paying the disk penalty).
func (s *tieredStore) get(key string, now vtime.Time) (e *entry, fromDisk bool) {
	if e, ok := s.mem[key]; ok {
		e.lastAccess = now
		return e, false
	}
	if e, ok := s.disk[key]; ok {
		delete(s.disk, key)
		// Refresh recency before inserting, or the eviction scan inside
		// insertMem would see the stale timestamp and demote the entry
		// straight back to disk.
		e.lastAccess = now
		s.insertMem(e, now)
		return e, true
	}
	return nil, false
}

// merge folds lat into key, creating it if absent. It reports whether the
// write landed on disk-resident data (paying the penalty) and the entry.
func (s *tieredStore) merge(key string, lat lattice.Lattice, now vtime.Time) (e *entry, fromDisk bool) {
	e, fromDisk = s.get(key, now)
	if e == nil {
		e = &entry{key: key, lat: lat, size: lat.ByteSize(), lastAccess: now}
		s.insertMem(e, now)
		return e, false
	}
	s.memBytes -= e.size
	e.lat = e.lat.Merge(lat)
	e.size = e.lat.ByteSize()
	s.memBytes += e.size
	s.evictIfNeeded(now)
	return e, fromDisk
}

// delete removes key from both tiers.
func (s *tieredStore) delete(key string) {
	if e, ok := s.mem[key]; ok {
		s.memBytes -= e.size
		delete(s.mem, key)
		return
	}
	delete(s.disk, key)
}

// resize re-accounts e's size after its value was replaced outside a
// merge (set-element removal). get promotes entries to the memory tier,
// so the common case adjusts memBytes; the fallback covers entries
// replaced while disk-resident.
func (s *tieredStore) resize(e *entry) {
	if _, ok := s.mem[e.key]; ok {
		s.memBytes -= e.size
		e.size = e.lat.ByteSize()
		s.memBytes += e.size
		return
	}
	e.size = e.lat.ByteSize()
}

// insertMem places e in the memory tier, demoting LRU entries if the
// capacity is exceeded.
func (s *tieredStore) insertMem(e *entry, now vtime.Time) {
	s.mem[e.key] = e
	s.memBytes += e.size
	s.evictIfNeeded(now)
}

// evictIfNeeded demotes least-recently-used memory entries to disk until
// under capacity. The incoming entry itself can be demoted if it is the
// coldest, matching Anna's policy of keeping the hot working set in
// memory.
func (s *tieredStore) evictIfNeeded(now vtime.Time) {
	for s.memCapacity > 0 && s.memBytes > s.memCapacity && len(s.mem) > 1 {
		var victim *entry
		for _, e := range s.mem {
			if victim == nil || e.lastAccess < victim.lastAccess ||
				(e.lastAccess == victim.lastAccess && e.key < victim.key) {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(s.mem, victim.key)
		s.memBytes -= victim.size
		s.disk[victim.key] = victim
	}
}

// markDirty flags e for each of the given ticks, queueing it the first
// time a flag rises. Every writer marks through here: an entry flagged
// any other way would never be sent.
func (s *tieredStore) markDirty(e *entry, kinds ...dirtyKind) {
	for _, kind := range kinds {
		if !e.dirty[kind] {
			e.dirty[kind] = true
			s.dirty[kind] = append(s.dirty[kind], e)
		}
	}
}

// drainDirty visits the entries queued for kind in the order each would
// reach them — memory tier before disk tier, each tier by key — then
// clears their flags and empties the queue. An entry that is no longer
// the stored entry for its key is skipped: after a delete and a fresh put
// the new entry is queued in its own right, and the key is sent once. fn
// must not add, remove or move entries.
func (s *tieredStore) drainDirty(kind dirtyKind, fn func(e *entry)) {
	q := s.dirty[kind]
	if len(q) == 0 {
		return
	}
	// Partition in place: live memory entries, then live disk entries.
	live, nMem := q[:0], 0
	for _, e := range q {
		e.dirty[kind] = false
		switch {
		case s.mem[e.key] == e:
			live = append(live, e)
			last := len(live) - 1
			live[nMem], live[last] = live[last], live[nMem]
			nMem++
		case s.disk[e.key] == e:
			live = append(live, e)
		}
	}
	byKey := func(a, b *entry) int { return strings.Compare(a.key, b.key) }
	slices.SortFunc(live[:nMem], byKey)
	slices.SortFunc(live[nMem:], byKey)
	for _, e := range live {
		fn(e)
	}
	clear(q) // drop the references for GC
	s.dirty[kind] = q[:0]
}

// each iterates over all entries (memory then disk) in sorted key order,
// for the walks that are whole-store by nature; the periodic ticks use
// drainDirty. Deterministic order matters: callers send network messages
// per entry, and message order consumes the kernel's random source —
// unsorted map iteration would break run-to-run reproducibility. fn must
// not add, remove or move entries.
func (s *tieredStore) each(fn func(e *entry, onDisk bool)) {
	for _, k := range sortedEntryKeys(s.mem) {
		fn(s.mem[k], false)
	}
	for _, k := range sortedEntryKeys(s.disk) {
		fn(s.disk[k], true)
	}
}

func sortedEntryKeys(m map[string]*entry) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// totalKeys reports the number of stored keys across tiers.
func (s *tieredStore) totalKeys() int { return len(s.mem) + len(s.disk) }
