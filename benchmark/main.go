// Command benchmark is the repository's benchmark: four workloads that
// each load a different set of layers, end-to-end metrics on two clocks
// (host and simulated), and a traced run that splits host time by layer.
// README.md in this directory describes all of it; BENCHMARK.json at the
// repository root declares the command, the workloads and every metric.
//
//	bash benchmark/run.sh --workload hot-open --seed 1 --seconds 24 --trace 0
//	bash benchmark/run.sh --workload all --trace 1 --out new.json --chrome spans.json
//	bash benchmark/run.sh --compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one reported value; the JSON shape is the driver's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadReport is one workload's entry in an -out file.
type workloadReport struct {
	Name      string               `json:"name"`
	Loop      string               `json:"loop"`
	Correct   bool                 `json:"correct"`
	Wrong     string               `json:"wrong,omitempty"`       // first output that failed its check
	FirstErr  string               `json:"first_error,omitempty"` // first request that returned an error
	Requests  int                  `json:"requests"`
	Failed    int                  `json:"failed"`
	Reps      int                  `json:"repetitions"`
	EndToEnd  map[string]metric    `json:"end_to_end"`
	Samples   map[string][]float64 `json:"samples"` // per-repetition values behind each host-clock median
	PerLayer  map[string]metric    `json:"per_layer,omitempty"`
	LoadWallS float64              `json:"load_wall_s"`
}

// report is the whole -out file.
type report struct {
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Traced     bool             `json:"traced"`
	Smoke      bool             `json:"smoke"`
	Workloads  []workloadReport `json:"workloads"`
}

// options are the settings of one run.
type options struct {
	seed    int64
	seconds float64
	reps    int // 0: as many as fit in seconds
	traced  bool
	div     int // 1, or smokeDiv for -smoke
}

const (
	// procs pins GOMAXPROCS. The kernel runs one goroutine at a time, so a
	// second P buys only the Go scheduler's idle-P wake-up and spin on every
	// hand-off: hot-open's load phase costs 6.6 CPU-seconds with two and 4.2
	// with one, and under a noisy neighbour 8-11 against 4.3-5.0. Pinning
	// it also makes a run on a box with more cores measure the same thing.
	procs         = 1
	maxReps       = 5               // repetitions of one run, however short they are
	minSetups     = 7               // set-up samples wanted behind setup_s
	maxExtraSetup = 2 * time.Second // what the set-ups beyond the repetitions' own may cost
)

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// another reports whether to run one more plain repetition after n of
// them took elapsed seconds: a traced run makes do with one, -reps fixes
// the count, and otherwise they run until the next would overrun -seconds.
func (o options) another(n int, elapsed float64) bool {
	switch {
	case o.traced:
		return false
	case o.reps > 0:
		return n < o.reps
	}
	return n < maxReps && elapsed+elapsed/float64(n) <= o.seconds
}

// measure runs one workload: plain repetitions, extra set-ups for the
// median of setup_s, and, for a traced run, one traced repetition and the
// layer probes.
func measure(w workload, opt options, sp *spanLog) (workloadReport, error) {
	sp.workload = w.name
	repeat := func(mode repMode) (*repetition, error) {
		sp.rep++
		return runRepetition(w, opt.seed, opt.div, mode, sp)
	}
	sp.rep = 0
	var plain []*repetition
	for start := time.Now(); len(plain) == 0 || opt.another(len(plain), time.Since(start).Seconds()); {
		rep, err := repeat(plainRep)
		if err != nil {
			return workloadReport{}, err
		}
		plain = append(plain, rep)
	}
	samples := func(get func(*repetition) float64) (out []float64) {
		for _, r := range plain {
			out = append(out, get(r))
		}
		return out
	}
	// Set-up is short next to a load phase, so its median gets more samples
	// than there are repetitions: set-ups alone, while they stay cheap.
	setups := samples(func(r *repetition) float64 { return r.setupS })
	for start := time.Now(); !opt.traced && opt.div == 1 && len(setups) < minSetups && time.Since(start) < maxExtraSetup; {
		rep, err := repeat(setupOnly)
		if err != nil {
			return workloadReport{}, err
		}
		setups = append(setups, rep.setupS)
	}
	all := plain
	if opt.traced {
		rep, err := repeat(tracedRep)
		if err != nil {
			return workloadReport{}, err
		}
		all = append(slices.Clip(plain), rep)
	}
	if err := checkRepetitions(w, all); err != nil {
		return workloadReport{}, err
	}

	first := plain[0]
	out := workloadReport{
		Name: w.name, Loop: w.loop, Reps: len(plain),
		Requests: first.sim.attempted, Failed: first.sim.failed, LoadWallS: first.loadWallS,
		EndToEnd: map[string]metric{}, Samples: map[string][]float64{},
	}
	for _, r := range all {
		if out.Wrong == "" {
			out.Wrong = r.wrong
		}
		if out.FirstErr == "" {
			out.FirstErr = r.firstErr
		}
	}
	out.Correct = out.Wrong == ""

	host := func(name, unit string, values []float64) {
		out.Samples[name] = values
		out.EndToEnd[name] = metric{median(values), unit}
	}
	host("setup_s", "s", setups)
	host("host_cpu_s", "s", samples(func(r *repetition) float64 { return r.hostCPUS }))
	host("allocs_per_req", "count", samples(func(r *repetition) float64 { return r.allocsPerReq }))
	host("bytes_per_req", "B", samples(func(r *repetition) float64 { return r.bytesPerReq }))
	host("live_heap_mb", "MB", samples(func(r *repetition) float64 { return r.liveHeapMB }))
	// Simulated results are the same in every repetition (checked above).
	out.EndToEnd["sim_p50_ms"] = metric{ms(first.sim.p50), "ms"}
	out.EndToEnd["sim_p99_ms"] = metric{ms(first.sim.p99), "ms"}
	out.EndToEnd["sim_req_per_s"] = metric{first.sim.reqPerS(), "1/s"}

	if opt.traced {
		layer, err := perLayer(first, all[len(all)-1], opt.div, sp)
		if err != nil {
			return workloadReport{}, fmt.Errorf("%s: %w", w.name, err)
		}
		out.PerLayer = layer
	}
	return out, nil
}

// finite reports the first metric that is NaN or infinite.
func finite(ms map[string]metric) error {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

func printTable(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println(title)
	for _, name := range names {
		fmt.Printf("  %-34s %16.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

func run() error {
	var (
		wl      = flag.String("workload", "all", "workload `name[,name]`, or all")
		seed    = flag.Int64("seed", 1, "the only input to workload generation (and the simulation's seed)")
		seconds = flag.Float64("seconds", 20, "host-time budget per workload for set-up plus load repetitions")
		reps    = flag.Int("reps", 0, "run exactly this many repetitions instead of filling -seconds")
		trace   = flag.Int("trace", 0, "1: also run one traced repetition and the layer probes, and print the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "run at ~1/50 size: checks that everything runs, measures nothing")
		list    = flag.Bool("list", false, "list the workloads and exit")
		outPath = flag.String("out", "", "write the full results as JSON to this `file`")
		chrome  = flag.String("chrome", "", "write the harness spans as a Chrome trace to this `file`")
		compare = flag.Bool("compare", false, "compare two -out files: -compare old.json new.json")
		spec    = flag.String("spec", "BENCHMARK.json", "the benchmark declaration -compare takes bounds from")
	)
	flag.Parse()

	if *list {
		for _, w := range workloads {
			fmt.Printf("%-16s %s\n%-16s %s\n", w.name, w.loop, "", w.why)
		}
		return nil
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two files: old.json new.json")
		}
		return compareFiles(*spec, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}

	var selected []workload
	if *wl == "all" {
		selected = workloads
	} else {
		for _, name := range strings.Split(*wl, ",") {
			w, ok := findWorkload(name)
			if !ok {
				return fmt.Errorf("unknown workload %q (try -list)", name)
			}
			selected = append(selected, w)
		}
	}
	runtime.GOMAXPROCS(procs)
	opt := options{seed: *seed, seconds: *seconds, reps: *reps, traced: *trace != 0, div: 1}
	if *smoke {
		opt.div, opt.reps = smokeDiv, 1
	}

	rep := report{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: opt.seed, Seconds: opt.seconds,
		Traced: opt.traced, Smoke: *smoke,
	}
	sp := newSpanLog()
	var last result
	allCorrect := true
	for _, w := range selected {
		wr, err := measure(w, opt, sp)
		if err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, wr)
		shown := wr.EndToEnd
		if opt.traced {
			shown = wr.PerLayer
		}
		if err := finite(shown); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printTable(fmt.Sprintf("%s (%s; %d requests, %d failed, %d repetitions)", wr.Name, wr.Loop, wr.Requests, wr.Failed, wr.Reps), shown)
		if !wr.Correct {
			allCorrect = false
			fmt.Printf("  WRONG OUTPUT: %s\n", wr.Wrong)
		}
		if wr.FirstErr != "" {
			fmt.Printf("  first failed request: %s\n", wr.FirstErr)
		}
		last = result{Correct: wr.Correct, Attempted: wr.Requests, Failed: wr.Failed, Metrics: shown}
	}

	if *outPath != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *chrome != "" {
		data, err := sp.chromeJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*chrome, data, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !allCorrect {
		return fmt.Errorf("a workload produced a wrong output")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
