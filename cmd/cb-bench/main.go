// Command cb-bench reproduces every table and figure of the paper's
// evaluation (§6) and prints the corresponding rows/series. By default
// it runs CI-scale "quick" configurations (seconds each); -full runs the
// paper's parameters (the Figure 7 and Figure 8 full runs simulate
// millions of requests and take minutes of real time).
//
// Usage:
//
//	cb-bench                 # all experiments, quick parameters
//	cb-bench -run fig5,fig6  # a subset
//	cb-bench -run table2 -full
//	cb-bench -parallel 8     # fan independent simulation cells across 8 workers
//	cb-bench -parallel 1     # force the serial runner
//	cb-bench -list
//
// The experiments are internal/bench's registry. Figures fan their
// independent simulation cells across a worker pool (internal/parallel);
// tables are byte-identical at every width. The width defaults to
// GOMAXPROCS.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"cloudburst/internal/bench"
	"cloudburst/internal/parallel"
)

func main() {
	runFlag := flag.String("run", "all", "comma-separated experiment names, or 'all'")
	full := flag.Bool("full", false, "use the paper's full parameters (slow)")
	list := flag.Bool("list", false, "list experiments and exit")
	width := flag.Int("parallel", 0, "experiment-runner width: 1 forces serial, 0 keeps the default (GOMAXPROCS)")
	traceOut := flag.String("traceout", "", "write fig14's Chrome trace-event JSON to this file")
	flag.Parse()
	if *width > 0 {
		parallel.SetWidth(*width)
	}

	if *list {
		fmt.Print(listing())
		return
	}
	exps, err := bench.Lookup(strings.Split(*runFlag, ",")...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cb-bench: %v (use -list)\n", err)
		os.Exit(2)
	}
	// -traceout edits fig14's config: the knee scenario's Chrome trace
	// (the CI artifact; open in chrome://tracing or Perfetto).
	tweaks := map[string]any{
		"fig14-breakdown": func(c *bench.Fig14Config) { c.ChromeOut = *traceOut },
	}

	mode := "quick"
	if *full {
		mode = "full (paper parameters)"
	}
	fmt.Printf("cb-bench: reproducing the Cloudburst (VLDB'20) evaluation — %s configuration, runner width %d\n", mode, parallel.Width())
	for _, e := range exps {
		start := time.Now()
		fmt.Print(e.Run(*full, tweaks[e.Name]))
		fmt.Printf("[%s completed in %.1fs of real time]\n", e.Name, time.Since(start).Seconds())
		// Each experiment boots and tears down whole clusters; return
		// the heap to the OS so a long -run list fits small machines.
		debug.FreeOSMemory()
	}
}

// listing is the -list output: one line per experiment, registry order.
func listing() string {
	var b strings.Builder
	for _, e := range bench.Experiments {
		fmt.Fprintf(&b, "%-18s %s\n", e.Name, e.About)
	}
	return b.String()
}
