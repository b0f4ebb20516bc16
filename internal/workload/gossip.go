package workload

import (
	"fmt"
	"math"
	"time"

	cb "cloudburst"
)

// Gossip is the §6.1.3 distributed-aggregation workload: Kempe et al.'s
// push-sum protocol, implemented over Cloudburst's direct communication
// API (Table 1). Actors advertise their invocation IDs under well-known
// KVS keys, then exchange point-to-point mass messages until the
// leader's estimate converges to within 5% of the true mean.
type Gossip struct {
	Actors int
	// MaxSteps bounds a round in case of pathological schedules.
	MaxSteps int
}

const (
	// stepInterval paces protocol steps (message exchange plus local
	// work); it models the Python actor loop of the paper's 60-line
	// implementation.
	stepInterval = 8 * time.Millisecond
	// peerWait bounds how long an actor waits for a peer's ID to appear
	// before abandoning the round. Unbounded waiting turns one lost
	// peer invocation (its dispatch message died with a crashed VM)
	// into a permanently wedged executor thread — under fault
	// injection, enough of those starve the whole fleet.
	peerWait = 5 * time.Second
)

// DefaultGossip returns the paper's configuration: 10 actors.
func DefaultGossip() Gossip {
	return Gossip{Actors: 10, MaxSteps: 400}
}

// Register installs the gossip actor and the gather functions.
func (g Gossip) Register(c *cb.Cluster) error {
	if err := c.RegisterFunction("gossip-actor", g.actor); err != nil {
		return err
	}
	if err := c.RegisterFunction("gather-publish", gatherPublish); err != nil {
		return err
	}
	return c.RegisterFunction("gather-leader", g.gatherLeader)
}

// actor is one push-sum participant. Args: round id (string), actor
// index, actor count, this actor's metric value, the true mean (known to
// the harness; the leader uses it to detect 5% convergence).
func (g Gossip) actor(ctx *cb.Ctx, args []any) (any, error) {
	round := args[0].(string)
	idx := args[1].(int)
	n := args[2].(int)
	value := args[3].(float64)
	mean := args[4].(float64)
	leader := idx == 0
	start := ctx.Now()

	// Advertise this invocation's unique ID, then collect the peers'.
	idKey := func(i int) string { return fmt.Sprintf("gossip/%s/id/%d", round, i) }
	if err := ctx.Put(idKey(idx), ctx.ID()); err != nil {
		return nil, err
	}
	peers := make([]string, n)
	for i := 0; i < n; i++ {
		for {
			v, found, err := ctx.Get(idKey(i))
			if err != nil {
				return nil, err
			}
			if found {
				peers[i] = v.(string)
				break
			}
			if ctx.Now().Sub(start) > peerWait {
				return nil, fmt.Errorf("gossip: peer %d never joined round %s", i, round)
			}
			ctx.Compute(2 * time.Millisecond)
		}
	}

	doneKey := fmt.Sprintf("gossip/%s/done", round)
	x, w := value, 1.0
	okStreak := 0
	for step := 0; step < g.MaxSteps; step++ {
		// Send half our mass to a random peer (possibly ourselves —
		// harmless and keeps mass conserved).
		target := peers[ctx.Rand().Intn(n)]
		if target != ctx.ID() {
			if err := ctx.Send(target, []float64{x / 2, w / 2}); err != nil {
				return nil, err
			}
			x, w = x/2, w/2
		}
		// Absorb inbound shares.
		msgs, err := ctx.Recv()
		if err != nil {
			return nil, err
		}
		for _, m := range msgs {
			share, ok := m.([]float64)
			if ok && len(share) == 2 {
				x += share[0]
				w += share[1]
			}
		}
		ctx.Compute(300 * time.Microsecond) // local estimate update
		if leader && w > 0 {
			est := x / w
			if math.Abs(est-mean) <= 0.05*math.Abs(mean) {
				okStreak++
				if okStreak >= 2 {
					elapsed := ctx.Now().Sub(start)
					ctx.Put(doneKey, true)
					return elapsed.Seconds(), nil
				}
			} else {
				okStreak = 0
			}
		}
		if !leader && step%4 == 3 {
			if _, found, _ := ctx.Get(doneKey); found {
				return nil, nil
			}
		}
		ctx.Compute(stepInterval)
	}
	if leader {
		ctx.Put(doneKey, true)
		return ctx.Now().Sub(start).Seconds(), nil
	}
	return nil, nil
}

// RunRound executes one aggregation round over Cloudburst and returns
// the leader's convergence latency.
func (g Gossip) RunRound(cl *cb.Client, round int, values []float64) (time.Duration, error) {
	mean := 0.0
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	rid := fmt.Sprintf("r%d", round)
	invs := make([]cb.Invocation, g.Actors)
	for i := 0; i < g.Actors; i++ {
		invs[i] = cb.Invocation{Function: "gossip-actor", Args: []any{rid, i, g.Actors, values[i], mean}}
	}
	// Batch pipelines all actors over one endpoint; each completes via a
	// pushed result, and only the leader's is awaited.
	futs := cl.Batch(invs)
	secs, err := cb.As[float64](futs[0])
	if err != nil {
		return 0, err
	}
	return time.Duration(secs * float64(time.Second)), nil
}

// gatherPublish writes one actor's metric to the KVS. Args: round,
// index, value.
func gatherPublish(ctx *cb.Ctx, args []any) (any, error) {
	round := args[0].(string)
	idx := args[1].(int)
	value := args[2].(float64)
	return nil, ctx.Put(fmt.Sprintf("gather/%s/val/%d", round, idx), value)
}

// gatherLeader polls the published metrics until all are present and
// returns their mean. Args: round, actor count. This is the fixed-
// membership workaround the paper uses for systems without direct
// communication (§6.1.3) — implemented on Cloudburst for reference.
func (g Gossip) gatherLeader(ctx *cb.Ctx, args []any) (any, error) {
	round := args[0].(string)
	n := args[1].(int)
	sum := 0.0
	for i := 0; i < n; i++ {
		for {
			v, found, err := ctx.Get(fmt.Sprintf("gather/%s/val/%d", round, i))
			if err != nil {
				return nil, err
			}
			if found {
				sum += v.(float64)
				break
			}
			ctx.Compute(2 * time.Millisecond)
		}
	}
	return sum / float64(n), nil
}

// RunGatherRound executes one gather aggregation on Cloudburst: the
// publishers fire asynchronously, the leader gathers synchronously.
func (g Gossip) RunGatherRound(cl *cb.Client, round int, values []float64) (time.Duration, error) {
	rid := fmt.Sprintf("g%d", round)
	start := cl.Now()
	for i := 0; i < g.Actors; i++ {
		cl.Invoke("gather-publish", []any{rid, i, values[i]})
	}
	if _, err := cl.Invoke("gather-leader", []any{rid, g.Actors}).Wait(); err != nil {
		return 0, err
	}
	return cl.Now() - start, nil
}
