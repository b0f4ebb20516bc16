package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"cloudburst/internal/core"
	"cloudburst/internal/executor"
	"cloudburst/internal/lattice"
	"cloudburst/internal/simnet"
)

// registrySet fetches a discovery Set's members from Anna (none when
// absent).
func registrySet(t *testing.T, c *Cluster, key string) []string {
	t.Helper()
	cl := c.AnnaClientFor(c.NewClientEndpoint())
	lat, found, err := cl.Get(key)
	if err != nil {
		t.Fatalf("get %s: %v", key, err)
	}
	if !found {
		return nil
	}
	set, ok := lat.(*lattice.Set)
	if !ok {
		t.Fatalf("%s is %T, want *lattice.Set", key, lat)
	}
	return set.Elems()
}

func TestReaperScrubsDeadGenerations(t *testing.T) {
	// N crash/restart cycles must not leak anything: no ghost metric keys
	// in the Anna registries, no orphaned simnet endpoints, no reaped
	// endpoint left in the down set, and a flat kernel process count
	// (parked procs of dead generations are released, not accumulated).
	c := testCluster(t, func(cfg *Config) {
		cfg.VMs = 3
		cfg.ThreadsPerVM = 2
		cfg.VMSpinUp = 5 * time.Second
	})
	const cycles = 4
	var deadGens []string
	c.K.Run("main", func() {
		c.K.Sleep(3 * time.Second) // let every VM register its metric keys
		baseNodes := c.Net.NodeCount()
		baseProcs := c.K.Stats().LiveProcs

		victim := "vm1"
		for i := 0; i < cycles; i++ {
			deadGens = append(deadGens, victim)
			c.KillVM(victim)
			victim = c.RestartVM(victim, false)
			if victim == "" {
				t.Fatalf("cycle %d: restart refused", i)
			}
			c.K.Sleep(10 * time.Second) // spin-up + reap + metrics tick
		}

		if got := c.Net.NodeCount(); got != baseNodes {
			t.Errorf("simnet endpoints leaked: %d nodes, want %d", got, baseNodes)
		}
		if got := c.K.Stats().LiveProcs; got != baseProcs {
			t.Errorf("kernel procs not flat: %d live, want %d", got, baseProcs)
		}
		if len(c.down) != 0 {
			t.Errorf("down set holds %d endpoints of reaped generations", len(c.down))
		}

		// The discovery registries must contain exactly the live fleet.
		wantExec := map[string]bool{}
		wantCache := map[string]bool{}
		for _, h := range c.VMs() {
			for _, th := range h.Threads {
				wantExec[core.ExecMetricsKey(string(th.ID()))] = true
			}
			wantCache[core.CacheKeysKey(h.Name)] = true
		}
		execSet := registrySet(t, c, executor.MetricListKey)
		for _, e := range execSet {
			if !wantExec[e] {
				t.Errorf("ghost exec registry entry %q", e)
			}
		}
		if len(execSet) != len(wantExec) {
			t.Errorf("exec registry has %d entries, want %d", len(execSet), len(wantExec))
		}
		cacheSet := registrySet(t, c, executor.CacheListKey)
		for _, e := range cacheSet {
			if !wantCache[e] {
				t.Errorf("ghost cache registry entry %q", e)
			}
		}
		if len(cacheSet) != len(wantCache) {
			t.Errorf("cache registry has %d entries, want %d", len(cacheSet), len(wantCache))
		}

		// The dead generations' metric values themselves must be deleted.
		cl := c.AnnaClientFor(c.NewClientEndpoint())
		for _, gen := range deadGens {
			for i := 0; i < 2; i++ {
				thread := fmt.Sprintf("exec-%s-%d", gen, i)
				if c.Alive(simnet.NodeID(thread)) {
					t.Errorf("reaped thread %s reported alive", thread)
				}
				key := core.ExecMetricsKey(thread)
				if _, found, _ := cl.Get(key); found {
					t.Errorf("dead generation metric %q survived the reaper", key)
				}
			}
			if _, found, _ := cl.Get(core.CacheKeysKey(gen)); found {
				t.Errorf("dead generation cache keyset %q survived the reaper", gen)
			}
		}
	})
}

func TestWarmRestartRestoresPeerState(t *testing.T) {
	// A warm RestartVM must rebuild the replacement's cache from a live
	// peer — byte-identical values, no Anna refault — and re-pin the
	// functions the dead generation served.
	c := testCluster(t, func(cfg *Config) { cfg.VMSpinUp = 5 * time.Second })
	c.K.Run("main", func() {
		cl := c.AnnaClientFor(c.NewClientEndpoint())
		keys := []string{"warm-a", "warm-b", "warm-c"}
		for i, k := range keys {
			payload := bytes.Repeat([]byte{byte('a' + i)}, 1024)
			ts := lattice.Timestamp{Clock: int64(i + 1), Node: uint64(i)}
			if err := cl.Put(k, lattice.NewLWW(ts, payload)); err != nil {
				t.Fatalf("put %s: %v", k, err)
			}
		}
		vms := c.VMs()
		victim, peer := vms[0], vms[1]
		victim.Cache.Prefetch(keys)
		peer.Cache.Prefetch(keys)
		// Pin a function on the victim so the seed records it.
		pinEP := c.NewClientEndpoint()
		for _, th := range victim.Threads {
			pinEP.Send(th.ID(), core.PinFunction{Function: "hot-fn"}, 32)
		}
		c.K.Sleep(time.Second)

		c.KillVM(victim.Name)
		name := c.RestartVM(victim.Name, true)
		if name == "" {
			t.Fatal("warm restart refused")
		}
		c.K.Sleep(8 * time.Second) // spin-up + warm fill

		var fresh *VMHandle
		for _, h := range c.VMs() {
			if h.Name == name {
				fresh = h
			}
		}
		if fresh == nil {
			t.Fatalf("replacement %q not in inventory", name)
		}
		if fresh.Cache.Stats.WarmFilledKeys != int64(len(keys)) {
			t.Errorf("warm-filled %d keys, want %d", fresh.Cache.Stats.WarmFilledKeys, len(keys))
		}
		for _, k := range keys {
			if !fresh.Cache.Contains(k) {
				t.Errorf("replacement cache missing %q after warm fill", k)
				continue
			}
			got, _, err := fresh.Cache.Read("", k, nil)
			if err != nil {
				t.Errorf("read %s from replacement: %v", k, err)
				continue
			}
			want, _, err := peer.Cache.Read("", k, nil)
			if err != nil {
				t.Errorf("read %s from peer: %v", k, err)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: restored value differs from peer's (%d vs %d bytes)", k, len(got), len(want))
			}
		}
		for _, th := range fresh.Threads {
			pinned := th.Pinned()
			if len(pinned) != 1 || pinned[0] != "hot-fn" {
				t.Errorf("thread %s pins = %v, want [hot-fn]", th.ID(), pinned)
			}
		}
	})
}

func TestColdRestartStaysCold(t *testing.T) {
	// A cold RestartVM must NOT inherit the dead generation's state: the
	// warm handoff is opt-in.
	c := testCluster(t, func(cfg *Config) { cfg.VMSpinUp = 5 * time.Second })
	c.K.Run("main", func() {
		cl := c.AnnaClientFor(c.NewClientEndpoint())
		ts := lattice.Timestamp{Clock: 1, Node: 1}
		if err := cl.Put("cold-k", lattice.NewLWW(ts, []byte("v"))); err != nil {
			t.Fatal(err)
		}
		vms := c.VMs()
		vms[0].Cache.Prefetch([]string{"cold-k"})
		vms[1].Cache.Prefetch([]string{"cold-k"})
		c.K.Sleep(time.Second)
		c.KillVM(vms[0].Name)
		name := c.RestartVM(vms[0].Name, false)
		c.K.Sleep(8 * time.Second)
		for _, h := range c.VMs() {
			if h.Name == name && h.Cache.Contains("cold-k") {
				t.Error("cold restart inherited cache state")
			}
		}
	})
}

func TestDrainVMKeepsServingInFlight(t *testing.T) {
	// DrainVM stops metric publication only: endpoints stay up, threads
	// stay alive, and the VM remains in the inventory until killed.
	c := testCluster(t, nil)
	c.K.Run("main", func() {
		vm := c.VMs()[0]
		if !c.DrainVM(vm.Name) {
			t.Fatal("drain refused")
		}
		if c.VMCount() != 2 {
			t.Fatalf("drain removed the VM: %d live", c.VMCount())
		}
		if !c.Alive(vm.Threads[0].ID()) {
			t.Fatal("drained VM's thread went down")
		}
		if c.DrainVM("no-such-vm") {
			t.Fatal("drain of unknown VM accepted")
		}
	})
}

// TestReapedCacheLeavesAnnaIndex: a reaped generation's cache holds no
// subscription in Anna's key→cache index. vm1's cache reads ten keys and
// publishes them, and a write to each is pushed to it; after a RemoveVMs
// or a RestartVM reap, a sink listening at the dead cache's address
// receives nothing when every one of those keys is written again.
func TestReapedCacheLeavesAnnaIndex(t *testing.T) {
	for _, how := range []string{"RemoveVMs", "RestartVM"} {
		t.Run(how, func(t *testing.T) {
			c := testCluster(t, func(cfg *Config) { cfg.VMs = 2; cfg.VMSpinUp = 2 * time.Second })
			c.K.Run("main", func() {
				kv := c.AnnaClientFor(c.NewClientEndpoint())
				write := func(key string) {
					ts := lattice.Timestamp{Clock: int64(c.K.Now()), Node: 7}
					if err := kv.Put(key, lattice.NewLWW(ts, []byte(key))); err != nil {
						t.Fatal(err)
					}
				}
				var keys []string
				for i := 0; i < 10; i++ {
					keys = append(keys, fmt.Sprintf("held-%d", i))
					write(keys[i])
				}
				h := c.vms["vm1"]
				for _, key := range keys {
					if _, _, err := h.Cache.Read("warm", key, nil); err != nil {
						t.Fatal(err)
					}
				}
				c.K.Sleep(time.Second) // the keyset tick publishes them
				before := h.Cache.Stats.UpdatesPushed
				for _, key := range keys {
					write(key)
				}
				c.K.Sleep(time.Second)
				if got := h.Cache.Stats.UpdatesPushed - before; got != int64(len(keys)) {
					t.Fatalf("the live cache took %d pushes for %d writes, want one each", got, len(keys))
				}
				dead := h.Cache.ID()
				switch how {
				case "RemoveVMs":
					if c.RemoveVMs(1) != 1 || c.vms["vm1"] != nil {
						t.Fatal("RemoveVMs did not remove vm1")
					}
				case "RestartVM":
					c.KillVM("vm1")
					c.RestartVM("vm1", false)
					c.K.Sleep(3 * time.Second) // spin-up, then the reap
				}
				c.K.Sleep(time.Second) // the unsubscriptions land
				sink := c.Net.AddNode(dead)
				c.Net.SetDown(dead, false)
				for _, key := range keys {
					write(key)
				}
				c.K.Sleep(time.Second)
				if m, ok := sink.TryRecv(); ok {
					t.Fatalf("after the reap Anna still sent %T to the dead cache %s", m.Payload, dead)
				}
			})
		})
	}
}
