// Package fault is the chaos plane of the Cloudburst reproduction: a
// declarative fault-injection subsystem layered on the virtual-time
// kernel and the simnet fault overlays. A Plan is a schedule of typed
// fault events on the virtual clock — VM crashes and restarts
// (Cluster.KillVM/RestartVM), asymmetric network partitions and per-link
// degradation (simnet.LinkPolicy: drop probability, added latency,
// jitter, duplication), storage faults (Anna replica loss, ridden out by
// the client's replica walk), and cache snapshot drops (the §5.3
// upstream-failure path). An Injector runs plans as a daemon on a
// simnet.Dispatcher and records a fault timeline that experiments align
// with their latency samples — the §4.5 "performance under failure"
// figure family, and every chaos scenario after it.
//
// Plans are data: build them with NewPlan().At(offset, action)... and
// NewPlan().During(from, to, fault)..., or draw a
// randomized-but-reproducible one with RandomPlan. A fault that can be
// undone is a Healer, and During schedules it and its heal as one plan
// entry: Apply at from, Heal at to. A crashed VM's heal is its
// replacement (CrashVM), cold or, with Warm, with a warm cache handoff
// (Cluster.RestartVM). Every action is idempotent-ish and tolerant of a
// cluster that changed underneath it (a named VM that already died
// makes the action a recorded no-op), so randomized plans compose
// safely with autoscaling.
//
// Beyond the point faults, two composite actions drive whole
// state-transfer scenarios. RollingRestart drains and replaces VMs one
// at a time — each replacement must finish spinning up and get a
// settle grace before the next VM is touched — the rolling-upgrade
// primitive.
// RackFailure crashes two VMs at the same instant (correlated failure)
// and launches their warm replacements together after the outage.
// Composite actions sleep inside Apply, so events scheduled after them
// in the same plan are pushed out accordingly. RandomPlan never draws
// them; the chaos matrix runs each as a cell of its own.
package fault

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"cloudburst/internal/anna"
	"cloudburst/internal/cluster"
	"cloudburst/internal/simnet"
)

// Event is one scheduled fault: Action fires At after the plan starts
// (virtual time).
type Event struct {
	At     time.Duration
	Action Action
}

// Action is one applicable fault. Apply performs it against the
// injector's cluster and returns a human-readable timeline entry.
type Action interface {
	Apply(inj *Injector) string
}

// Plan is a declarative fault schedule. Events run in At order (ties in
// insertion order).
type Plan struct {
	Name   string
	Events []Event
}

// NewPlan creates an empty plan.
func NewPlan(name string) *Plan { return &Plan{Name: name} }

// At appends an event and returns the plan for chaining.
func (p *Plan) At(offset time.Duration, a Action) *Plan {
	p.Events = append(p.Events, Event{At: offset, Action: a})
	return p
}

// Healer is a fault that can be undone: Heal reverses Apply and returns
// its own timeline entry.
type Healer interface {
	Action
	Heal(inj *Injector) string
}

// During appends a fault and its heal as one unit: f applies at from and
// heals at to. It returns the plan for chaining.
func (p *Plan) During(from, to time.Duration, f Healer) *Plan {
	return p.At(from, f).At(to, heal{f})
}

// heal is the second event of a During pair.
type heal struct{ f Healer }

// Apply implements Action.
func (h heal) Apply(inj *Injector) string { return h.f.Heal(inj) }

// sorted returns the events in firing order without mutating the plan.
func (p *Plan) sorted() []Event {
	out := append([]Event(nil), p.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// --- actions -------------------------------------------------------------

// CrashAt arms a one-shot crash on a named protocol point-cut
// (internal/hook): the next time any entity fires the hook — an
// executor VM reaching "txn/post-prepare", a storage node acking a
// prepare, a workload function calling Ctx.Hook — that entity crashes
// at that exact instruction, and the protocol code past the point never
// runs. The cut is surgical where a timed CrashVM is a stopwatch guess:
// "between prepare and commit" is a program point, not an offset to
// tune. Arming is instantaneous; the crash lands whenever the point is
// next reached.
type CrashAt struct {
	// Hook names the point-cut (e.g. txn.HookPostPrepare).
	Hook string
	// Entity, when non-empty, restricts the trigger to one VM name or
	// storage-node id; other entities pass the point unharmed and the
	// trap stays armed.
	Entity string
	// HealAfter, when positive, revives the crashed entity that long
	// after the crash: VMs are replaced through the restart lifecycle
	// (spin-up delay included), storage nodes are simply reconnected.
	HealAfter time.Duration
	// Warm selects the warm-handoff restart for VM victims.
	Warm bool
}

// Apply implements Action.
func (a CrashAt) Apply(inj *Injector) string {
	hookName, entity := a.Hook, a.Entity
	after, warm := a.HealAfter, a.Warm
	inj.c.Hooks().Arm(hookName, func(who string) bool {
		if entity != "" && who != entity {
			return false
		}
		return inj.crashEntity(who, hookName, after, warm)
	})
	if entity == "" {
		return "arm crash-at " + hookName
	}
	return fmt.Sprintf("arm crash-at %s (entity %s)", hookName, entity)
}

// crashEntity is CrashAt's firing half: kill the named live VM (or
// partition the named storage node) right now, and schedule the heal if
// requested. It reports false, leaving the trap armed, for any other
// entity, such as a killed VM whose processes still run.
func (inj *Injector) crashEntity(who, hookName string, after time.Duration, warm bool) bool {
	prefix := "crash-at " + hookName + ": "
	if inj.kill(who) {
		inj.log(prefix + "crash " + who)
		inj.healAfter(after, func() string {
			return fmt.Sprintf("%srestart %s -> %s", prefix, who, inj.c.RestartVM(who, warm))
		})
		return true
	}
	id := simnet.NodeID(who)
	if !slices.ContainsFunc(inj.c.KV.Nodes(), func(n *anna.Node) bool { return n.ID() == id }) {
		return false
	}
	inj.c.Net.SetDown(id, true)
	inj.log(prefix + "partition " + who)
	inj.healAfter(after, func() string {
		inj.c.Net.SetDown(id, false)
		return prefix + "revive " + who
	})
	return true
}

// healAfter runs heal d from now and logs the entry it returns; a
// non-positive d never heals. The heal counts as plan work: the plan's
// arm event is long done by the time a trap springs, and anything
// waiting on Running() must not settle between the crash and its
// scheduled revival.
func (inj *Injector) healAfter(d time.Duration, heal func() string) {
	if d <= 0 {
		return
	}
	inj.running++
	inj.disp.Go("crash-at-heal", func() {
		defer func() { inj.running-- }()
		inj.c.K.Sleep(d)
		inj.log(heal())
	})
}

// CrashVM abruptly partitions a VM away (Cluster.KillVM): its processes
// keep running but every message to or from its endpoints is dropped.
// Its heal replaces the VM after the cluster's spin-up delay
// (Cluster.RestartVM): new endpoints, executor threads that re-register
// with the schedulers through the ordinary metrics path, and a cold
// cache, or with Warm a warm one.
type CrashVM struct {
	VM string
	// Warm restores the replacement's cache from a live peer and
	// pre-pins the functions the dead generation served, so recovery
	// skips the cold refault storm.
	Warm bool
}

// Apply implements Action.
func (a CrashVM) Apply(inj *Injector) string {
	if !inj.kill(a.VM) {
		return fmt.Sprintf("crash %s: already gone", a.VM)
	}
	return "crash " + a.VM
}

// Heal implements Healer.
func (a CrashVM) Heal(inj *Injector) string {
	verb := "restart"
	if a.Warm {
		verb = "warm restart"
	}
	replacement := inj.c.RestartVM(a.VM, a.Warm)
	if replacement == "" {
		return fmt.Sprintf("%s %s: unknown VM", verb, a.VM)
	}
	return fmt.Sprintf("%s %s -> %s (spin-up)", verb, a.VM, replacement)
}

// RollingRestart drains and replaces VMs one at a time — the
// rolling-upgrade primitive. Each VM is first drained
// (Cluster.DrainVM: metrics stop, schedulers route away once the
// reports age out, in-flight work completes), then warm-replaced; the
// action waits for the replacement to finish spinning up (its first
// metrics publication lands at boot, re-registering it with the
// schedulers) and a settle grace before the next VM is touched, so at
// most one VM's capacity is ever missing and no request is killed
// mid-flight. The action sleeps inside Apply; later events in the same
// plan are pushed out by the whole rolling window.
type RollingRestart struct {
	// VMs lists the restart order; empty means every VM live at apply
	// time, in sorted order.
	VMs []string
	// Drain is how long to wait after taking a VM out of rotation before
	// killing it — it must cover the schedulers' StaleAfter horizon plus
	// the tail of in-flight work.
	Drain time.Duration
	// Settle is the post-spin-up health grace per VM: a couple of
	// metrics/poll intervals, so schedulers and monitor see the
	// replacement before the next drain.
	Settle time.Duration
}

// Apply implements Action.
func (a RollingRestart) Apply(inj *Injector) string {
	vms := a.VMs
	if len(vms) == 0 {
		for _, h := range inj.c.VMs() {
			vms = append(vms, h.Name)
		}
	}
	n := 0
	for _, vm := range vms {
		if !inj.c.DrainVM(vm) {
			continue
		}
		inj.c.K.Sleep(a.Drain)
		if inj.c.RestartVM(vm, true) == "" {
			continue
		}
		for inj.c.PendingVMs() > 0 {
			inj.c.K.Sleep(500 * time.Millisecond)
		}
		inj.c.K.Sleep(a.Settle)
		n++
	}
	return fmt.Sprintf("rolling restart: replaced %d VM(s)", n)
}

// RackFailure crashes rackVictims random live VMs at the same instant —
// the correlated failure a real rack or AZ outage produces — and, after
// rackOutage, launches all their replacements together, each restoring
// its cache from a surviving peer. At least one VM is always left
// standing.
type RackFailure struct{}

const (
	rackVictims = 2
	rackOutage  = 4 * time.Second
)

// Apply implements Action.
func (RackFailure) Apply(inj *Injector) string {
	live := inj.c.VMs()
	count := min(rackVictims, len(live)-1)
	if count < 1 {
		return "rack failure: no eligible VMs"
	}
	var victims []string
	for _, i := range inj.c.K.Rand().Perm(len(live))[:count] {
		victims = append(victims, live[i].Name)
	}
	sort.Strings(victims)
	n := 0
	for _, vm := range victims {
		if inj.kill(vm) {
			n++
		}
	}
	inj.c.K.Sleep(rackOutage)
	for _, vm := range victims {
		inj.c.RestartVM(vm, true)
	}
	return fmt.Sprintf("rack failure: %d VM(s) down %s, warm replacements launched", n, rackOutage)
}

// DegradeVM installs a simnet node policy on every endpoint of a VM —
// Drop 1 is a transient full partition, smaller values a flaky NIC.
// Unlike CrashVM the VM stays in the inventory, so this models network
// trouble rather than instance loss. Its heal clears the policies.
type DegradeVM struct {
	VM     string
	Policy simnet.LinkPolicy
}

// Apply implements Action.
func (a DegradeVM) Apply(inj *Injector) string {
	h := inj.vmHandle(a.VM)
	if h == nil {
		return fmt.Sprintf("degrade %s: not live", a.VM)
	}
	for _, id := range h.NodeIDs() {
		inj.c.Net.SetNodePolicy(id, a.Policy)
	}
	return fmt.Sprintf("degrade %s %s", a.VM, policyString(a.Policy))
}

// Heal implements Healer.
func (a DegradeVM) Heal(inj *Injector) string {
	h := inj.vmHandle(a.VM)
	if h == nil {
		return fmt.Sprintf("heal %s: not live", a.VM)
	}
	for _, id := range h.NodeIDs() {
		inj.c.Net.ClearNodePolicy(id)
	}
	return "heal " + a.VM
}

// DegradeNode installs a node policy on one endpoint (a scheduler, a
// storage node, the monitor, ...); its heal clears it.
type DegradeNode struct {
	Node   simnet.NodeID
	Policy simnet.LinkPolicy
}

// Apply implements Action.
func (a DegradeNode) Apply(inj *Injector) string {
	inj.c.Net.SetNodePolicy(a.Node, a.Policy)
	return fmt.Sprintf("degrade node %s %s", a.Node, policyString(a.Policy))
}

// Heal implements Healer.
func (a DegradeNode) Heal(inj *Injector) string {
	inj.c.Net.ClearNodePolicy(a.Node)
	return fmt.Sprintf("heal node %s", a.Node)
}

// SplitBrain severs one VM from the monitor's endpoint (or, on a
// monitor-less cluster, from half the scheduler group) while every
// other path stays intact: schedulers still see the VM's metrics and
// keep dispatching work to it, but the blinded control-plane member can
// no longer reach it directly — its pin/unpin commands and health RPCs
// black-hole. The two halves of the control plane now act on divergent
// views of the fleet, the classic split-brain. Its heal clears the link
// policies.
type SplitBrain struct {
	VM string
}

// Apply implements Action.
func (a SplitBrain) Apply(inj *Injector) string {
	h := inj.vmHandle(a.VM)
	if h == nil {
		return fmt.Sprintf("split-brain %s: not live", a.VM)
	}
	blind := inj.blindShard()
	if len(blind) == 0 {
		return "split-brain: no control-plane shard to blind"
	}
	var pairs [][2]simnet.NodeID
	for _, vid := range h.NodeIDs() {
		for _, bid := range blind {
			inj.c.Net.SetLinkPolicy(vid, bid, simnet.LinkPolicy{Drop: 1})
			inj.c.Net.SetLinkPolicy(bid, vid, simnet.LinkPolicy{Drop: 1})
			pairs = append(pairs, [2]simnet.NodeID{vid, bid})
		}
	}
	inj.splitBrains[a.VM] = pairs
	return fmt.Sprintf("split-brain %s: blinded from %d control endpoint(s)", a.VM, len(blind))
}

// Heal implements Healer. Healing a VM whose split was never installed
// is a recorded no-op.
func (a SplitBrain) Heal(inj *Injector) string {
	pairs, ok := inj.splitBrains[a.VM]
	if !ok {
		return fmt.Sprintf("heal split-brain %s: none recorded", a.VM)
	}
	delete(inj.splitBrains, a.VM)
	for _, pr := range pairs {
		inj.c.Net.ClearLinkPolicy(pr[0], pr[1])
		inj.c.Net.ClearLinkPolicy(pr[1], pr[0])
	}
	return fmt.Sprintf("heal split-brain %s", a.VM)
}

// blindShard picks the control-plane endpoints a SplitBrain blinds: the
// monitor's endpoint when the monitoring system is running, else the
// odd-indexed half of the scheduler group.
func (inj *Injector) blindShard() []simnet.NodeID {
	if inj.c.Monitor != nil {
		return []simnet.NodeID{inj.c.Monitor.ID()}
	}
	var out []simnet.NodeID
	for i, s := range inj.c.Schedulers() {
		if i%2 == 1 {
			out = append(out, s.ID())
		}
	}
	return out
}

// CrashAnnaNode partitions one storage node away (replica loss). Reads
// ride it out through the Anna client's replica walk when the
// replication factor covers the loss; its heal reconnects the node.
// Index is resolved modulo the node count.
type CrashAnnaNode struct {
	Index int
}

// Apply implements Action.
func (a CrashAnnaNode) Apply(inj *Injector) string {
	id, ok := inj.annaNode(a.Index)
	if !ok {
		return "crash anna: no storage nodes"
	}
	inj.c.Net.SetDown(id, true)
	return fmt.Sprintf("crash anna replica %s", id)
}

// Heal implements Healer.
func (a CrashAnnaNode) Heal(inj *Injector) string {
	id, ok := inj.annaNode(a.Index)
	if !ok {
		return "revive anna: no storage nodes"
	}
	inj.c.Net.SetDown(id, false)
	return fmt.Sprintf("revive anna replica %s", id)
}

// DropSnapshots discards the per-request version snapshots of one VM's
// cache (all caches when VM is empty) — the §5.3 upstream-cache-failure
// path; in-flight session-consistent DAGs that depended on them fail
// with ErrSnapshotGone and are re-issued.
type DropSnapshots struct {
	VM string
}

// Apply implements Action.
func (a DropSnapshots) Apply(inj *Injector) string {
	n := 0
	for _, h := range inj.c.VMs() {
		if a.VM != "" && h.Name != a.VM {
			continue
		}
		h.Cache.DropSnapshots()
		n++
	}
	return fmt.Sprintf("drop snapshots on %d cache(s)", n)
}

func policyString(p simnet.LinkPolicy) string {
	return fmt.Sprintf("{drop %.2f lat +%s jitter %s dup %.2f}",
		p.Drop, p.ExtraLatency, p.Jitter, p.Duplicate)
}

// liveVM reports whether name is in the live inventory.
func (inj *Injector) liveVM(name string) bool { return inj.vmHandle(name) != nil }

func (inj *Injector) vmHandle(name string) *cluster.VMHandle {
	for _, h := range inj.c.VMs() {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// kill crashes the named VM (Cluster.KillVM) and reports whether it was
// live.
func (inj *Injector) kill(vm string) bool {
	if !inj.liveVM(vm) {
		return false
	}
	inj.c.KillVM(vm)
	return true
}

// annaNode resolves a storage node by index (modulo the node count).
func (inj *Injector) annaNode(idx int) (simnet.NodeID, bool) {
	nodes := inj.c.KV.Nodes()
	if len(nodes) == 0 {
		return "", false
	}
	if idx < 0 {
		idx = -idx
	}
	return nodes[idx%len(nodes)].ID(), true
}
