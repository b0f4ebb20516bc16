package bench

// The §4.5 crash-and-recover rig that fig10-failure, lifecycle and
// fig15-txn's failure panel share: a cluster that rides out one VM's
// crash, the crash itself, a closed-loop load that waits each request
// out to its terminal outcome, and the load's samples split around the
// crash and bucketed by second.

import (
	"errors"
	"time"

	cb "cloudburst"
	"cloudburst/internal/cluster"
	"cloudburst/internal/fault"
	"cloudburst/internal/workload"
)

// Crash times a crash-and-recover run. Every offset counts from the
// start of the load: the victim VM dies at KillAt, restarts RestFor
// later, and its replacement joins VMSpinUp after the restart.
type Crash struct {
	KillAt   time.Duration // when the victim VM is crashed
	RestFor  time.Duration // crash → restart gap
	VMSpinUp time.Duration // replacement boot delay
	RunFor   time.Duration // total load duration
}

// crashCluster is the cluster of a run that crashes VMs: vms executor
// VMs over 3 Anna nodes at replication 2 (so losing a storage replica is
// survivable), replacements that boot in spinUp, and a thread taken for
// dead staleAfter after its last report (the failure-detection horizon).
func crashCluster(seed int64, vms int, spinUp, staleAfter time.Duration) cb.Config {
	ccfg := cb.DefaultConfig()
	ccfg.Seed = seed
	ccfg.VMs = vms
	ccfg.AnnaNodes = 3
	ccfg.Replication = 2
	ccfg.VMSpinUp = spinUp
	ccfg.StaleAfter = staleAfter
	return ccfg
}

// fixedFleet turns the monitor on over a fleet held at its boot size
// with every thread pinned: it re-admits a replacement VM and re-pins
// its threads, and the only lifecycle events are the injected ones.
func fixedFleet(ccfg *cb.Config) {
	ccfg.Autoscale = true
	ccfg.MaxVMs = ccfg.VMs
	ccfg.MinPinned = ccfg.VMs * ccfg.ThreadsPerVM
}

// plan is the figures' fault: the cluster's second VM crashed at KillAt
// and restarted RestFor later, warm (its cache restored from a peer's
// snapshots) or cold. The victim is fixed so equal seeds give identical
// runs.
func (t Crash) plan(in *cluster.Cluster, name string, warm bool) *fault.Plan {
	return fault.NewPlan(name).During(t.KillAt, t.KillAt+t.RestFor, fault.CrashVM{VM: in.VMs()[1].Name, Warm: warm})
}

// A request issues a client's next request and returns the call that
// waits for its outcome.
type request func() (wait func() error)

// crashSample is one completed request: when it completed and its
// latency from issue.
type crashSample struct{ at, lat time.Duration }

// crashLoad is what a crash run's load recorded.
type crashLoad struct {
	Crash
	start   time.Duration // when the load began; Crash's offsets count from here
	samples []crashSample
	failed  []time.Duration // when each failed request gave up
}

// run starts plan on a new injector, then runs clients closed-loop for
// RunFor: client sets up client i and returns its requests. A request
// whose wait times out client-side is waited for again, up to a minute
// from its issue, since the wait bound equals the §4.5 re-execution
// deadline and a request riding a retry times out while still in
// flight (that latency is the figure); any other error is terminal.
func (t Crash) run(c *cb.Cluster, plan *fault.Plan, clients int, client func(i int, cl *cb.Client) request) (*fault.Injector, crashLoad) {
	inj := fault.NewInjector(c.Internal())
	c.Run(func(*cb.Client) { inj.Start(plan) })
	load := crashLoad{Crash: t, start: c.Now()} // virtual time is frozen between Runs
	c.RunN(clients, func(i int, cl *cb.Client) {
		next := client(i, cl)
		for time.Duration(cl.Now()) < load.start+t.RunFor {
			issued := time.Duration(cl.Now())
			wait := next()
			for {
				err := wait()
				now := time.Duration(cl.Now())
				if err == nil {
					load.samples = append(load.samples, crashSample{at: now, lat: now - issued})
					break
				}
				if !errors.Is(err, cb.ErrTimedOut) || now-issued > time.Minute {
					load.failed = append(load.failed, now)
					break
				}
			}
		}
	})
	return inj, load
}

// CrashOutcome is what a crash run's load saw.
type CrashOutcome struct {
	Pre          Summary  // completed before the kill
	During       Summary  // from the kill to the recovery (restart + spin-up)
	Post         Summary  // from the recovery on
	Completed    int      // requests that succeeded
	Failed       int      // requests with a terminal error
	Reexecutions int64    // §4.5 re-executions issued by the schedulers
	Timeline     []string // injector events, virtual-time stamped
}

// outcome digests the load, with the injector's timeline and the
// schedulers' re-executions as they stand.
func (l crashLoad) outcome(in *cluster.Cluster, inj *fault.Injector) CrashOutcome {
	o := CrashOutcome{
		Completed:    len(l.samples),
		Failed:       len(l.failed),
		Reexecutions: reexecutions(in),
		Timeline:     inj.TimelineStrings(),
	}
	o.Pre, o.During, o.Post = l.phases()
	return o
}

// killAt is when the victim VM died.
func (l crashLoad) killAt() time.Duration { return l.start + l.KillAt }

// recoverAt is when the replacement joined: the restart plus its boot.
func (l crashLoad) recoverAt() time.Duration { return l.killAt() + l.RestFor + l.VMSpinUp }

// phases digests the completed requests before the kill, from the kill
// to the recovery, and from the recovery on, each by completion time:
// one completing at the kill is during the failure, one completing at
// the recovery after it.
func (l crashLoad) phases() (pre, during, post Summary) {
	var p [3][]time.Duration
	for _, s := range l.samples {
		switch {
		case s.at < l.killAt():
			p[0] = append(p[0], s.lat)
		case s.at < l.recoverAt():
			p[1] = append(p[1], s.lat)
		default:
			p[2] = append(p[2], s.lat)
		}
	}
	return Summarize("pre-failure", p[0]), Summarize("during-failure", p[1]), Summarize("post-recovery", p[2])
}

// timeline buckets the first RunFor of the load by the second a request
// completed or failed in (a second of failures only has its bucket too)
// and returns the worst bucket p99 (ms) among the buckets that start
// inside [from, to).
func (l crashLoad) timeline(from, to time.Duration) (buckets []Fig10Bucket, peak float64) {
	sec := func(at time.Duration) int { return int((at - l.start) / time.Second) }
	lats := make(map[int][]time.Duration)
	for _, s := range l.samples {
		lats[sec(s.at)] = append(lats[sec(s.at)], s.lat)
	}
	errs := make(map[int]int)
	for _, at := range l.failed {
		errs[sec(at)]++
	}
	for s := 0; s <= int(l.RunFor/time.Second); s++ {
		if len(lats[s]) == 0 && errs[s] == 0 {
			continue
		}
		sum := Summarize("", lats[s])
		buckets = append(buckets, Fig10Bucket{AtS: float64(s), N: sum.N, P50: sum.Median, P99: sum.P99, Errs: errs[s]})
		if at := l.start + time.Duration(s)*time.Second; at >= from && at < to && sum.P99 > peak {
			peak = sum.P99
		}
	}
	return buckets, peak
}

// waitHealed returns once inj's plan has run out and every replacement
// VM has joined, plus 8 seconds for the control plane to re-learn the
// fleet and for the transaction sweep to resolve what the crash left in
// doubt.
func waitHealed(c *cb.Cluster, inj *fault.Injector) {
	in := c.Internal()
	c.Run(func(cl *cb.Client) {
		for inj.Running() || in.PendingVMs() > 0 {
			cl.Sleep(time.Second)
		}
		cl.Sleep(8 * time.Second)
	})
}

// reexecutions sums the §4.5 re-executions the cluster's schedulers
// issued.
func reexecutions(in *cluster.Cluster) (n int64) {
	for _, s := range in.Schedulers() {
		n += s.Reexecutions()
	}
	return n
}

// bankSum reads b's balance sum; a failed read counts as a sum of -1.
func bankSum(c *cb.Cluster, b *workload.Bank) (sum int) {
	c.Run(func(cl *cb.Client) {
		var err error
		if sum, err = b.Sum(cl); err != nil {
			sum = -1
		}
	})
	return sum
}
