package main

// The runner: one process, one cluster and one kernel at a time. A
// repetition boots a fresh cluster from the seed, sets it up, runs the
// load phase between two readings of the host's resource counters, checks
// the outputs and tears the cluster down. Timings are medians over the
// repetitions; everything measured on the virtual clock must be identical
// in every repetition, traced or not, or the run fails.

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	cb "cloudburst"
)

// simResult is everything a load phase measured on the virtual clock.
// It is comparable: two repetitions of one seed must give equal values.
type simResult struct {
	attempted, failed, completed int
	p50, p99, latSum             time.Duration
	simLoad, maxLag              time.Duration
}

func (s simResult) reqPerS() float64 {
	if s.simLoad <= 0 {
		return 0
	}
	return float64(s.completed) / s.simLoad.Seconds()
}

// repetition is one measured load phase with its set-up and teardown.
type repetition struct {
	setupS, hostCPUS, loadWallS float64
	allocsPerReq, bytesPerReq   float64
	liveHeapMB, bootMS, closeMS float64
	sim                         simResult
	delta                       counters // counts over the load phase; gauges as read at its end
	wrong, firstErr             string
	profile                     []byte   // CPU profile of the load phase (traced repetitions)
	crit                        critPath // simulated critical path (traced repetitions)
	fullSize, traced            bool
}

func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// repMode says how much of a repetition runs.
type repMode int

const (
	plainRep  repMode = iota // set-up and load phase, nothing switched on
	tracedRep                // the same with the program's virtual-time collector on and the load phase under the CPU profiler
	setupOnly                // set-up and teardown alone: one more sample of setup_s
)

// runRepetition runs w once on a fresh cluster.
func runRepetition(w workload, seed int64, div int, mode repMode, sp *spanLog) (*repetition, error) {
	traced := mode == tracedRep
	rep := &repetition{traced: traced, fullSize: div == 1}
	cfg := w.config(seed)
	if traced {
		cfg.Trace = newCollector()
	}

	// Set-up: boot, register, preload, warm up; from a collected heap, so
	// that the previous repetition's garbage is not collected on its time.
	runtime.GC()
	setupStart := time.Now()
	end := sp.begin("cluster.boot")
	c := cb.NewCluster(cfg)
	rep.bootMS = ms(end())
	closed := false
	closeCluster := func() {
		if !closed {
			closed = true
			end := sp.begin("cluster.close")
			c.Close()
			rep.closeMS = ms(end())
		}
	}
	defer closeCluster()
	load, err := w.prepare(c, seed, div, sp)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	rep.setupS = time.Since(setupStart).Seconds()
	if mode == setupOnly {
		return rep, nil
	}

	// Load phase, between two readings of the host counters. The collection
	// before it keeps set-up garbage out of the load phase's GC time.
	reader := newCounterReader(c)
	res := loadResult{endOfLoad: reader.observe}
	tracesBefore := finishedTraces(cfg.Trace)
	runtime.GC()
	before := reader.read()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	cpu0, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	wall0 := time.Now()
	load(&res)
	rep.loadWallS = time.Since(wall0).Seconds()
	cpu1, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	if traced {
		pprof.StopCPUProfile()
		rep.profile = prof.Bytes()
		rep.crit = foldCritPath(cfg.Trace, tracesBefore)
	}
	runtime.ReadMemStats(&m1)
	after := reader.read()

	if res.attempted == 0 {
		return nil, fmt.Errorf("%s: load phase attempted no request", w.name)
	}
	n := float64(res.attempted)
	rep.hostCPUS = cpu1 - cpu0
	rep.allocsPerReq = float64(m1.Mallocs-m0.Mallocs) / n
	rep.bytesPerReq = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	rep.delta = after.minus(before)
	rep.wrong, rep.firstErr = res.wrong, res.firstErr

	// What the cluster keeps alive once the load has gone through it.
	runtime.GC()
	runtime.ReadMemStats(&m1)
	rep.liveHeapMB = float64(m1.HeapAlloc) / (1 << 20)

	slices.Sort(res.lat)
	rep.sim = simResult{
		attempted: res.attempted, failed: res.failed, completed: len(res.lat),
		p50: percentile(res.lat, 0.50), p99: percentile(res.lat, 0.99),
		simLoad: res.simLoad, maxLag: res.maxLag,
	}
	for _, d := range res.lat {
		rep.sim.latSum += d
	}

	closeCluster()
	return rep, nil
}

// minus returns the counts accumulated since before; gauges keep c's value.
func (c counters) minus(before counters) counters {
	d := c
	d.dispatches -= before.dispatches
	d.timerFires -= before.timerFires
	d.spawns -= before.spawns
	d.reuses -= before.reuses
	d.msgs -= before.msgs
	d.wireBytes -= before.wireBytes
	d.hits -= before.hits
	d.misses -= before.misses
	d.prefetchedKeys -= before.prefetchedKeys
	d.updatesPushed -= before.updatesPushed
	d.upstreamFetches -= before.upstreamFetches
	d.annaRPCs -= before.annaRPCs
	return d
}

// checkRepetitions verifies what must hold of every repetition and between them.
func checkRepetitions(w workload, reps []*repetition) error {
	first := reps[0]
	for i, r := range reps {
		if r.fullSize && highestTail(r.sim.completed) < 0.99 {
			return fmt.Errorf("%s: %d completed requests leave fewer than %d samples beyond p99", w.name, r.sim.completed, minBeyond)
		}
		if r.sim.maxLag != 0 {
			return fmt.Errorf("%s: the open-loop generator ran %v late", w.name, r.sim.maxLag)
		}
		if r.sim != first.sim {
			return fmt.Errorf("%s: simulated results differ between repetitions 1 and %d (traced %v/%v):\n  %+v\n  %+v",
				w.name, i+1, first.traced, r.traced, first.sim, r.sim)
		}
		if r.delta != first.delta {
			return fmt.Errorf("%s: layer counts differ between repetitions 1 and %d (traced %v/%v):\n  %+v\n  %+v",
				w.name, i+1, first.traced, r.traced, first.delta, r.delta)
		}
	}
	return nil
}
