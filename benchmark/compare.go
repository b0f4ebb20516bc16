package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// declared is one end-to-end metric as BENCHMARK.json declares it.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the old median it may worsen by
}

// Verdicts of one compared row.
const (
	better     = "better"
	within     = "within"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict compares a metric's old and new medians against its bound.
// spread is the wider of the two sides' repetition spreads: when that
// already exceeds the bound, a difference of the bound's size cannot be
// told from noise and the row is unresolved rather than unchanged.
func verdict(m declared, old, new, spread float64) string {
	if spread > m.Bound {
		return unresolved
	}
	worsening := (new - old) / math.Abs(old)
	if old == 0 { // no base for a ratio: any move from 0 is beyond every bound
		if new == 0 {
			return within
		}
		worsening = math.Copysign(math.Inf(1), new)
	}
	if m.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > m.Bound:
		return worse
	case worsening < -m.Bound:
		return better
	}
	return within
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per workload and end-to-end metric of two
// -out files and returns an error if any row is worse or more requests
// failed.
func compareFiles(specPath, oldPath, newPath string, w io.Writer) error {
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
	}
	var oldRep, newRep report
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	if err := readJSON(oldPath, &oldRep); err != nil {
		return err
	}
	if err := readJSON(newPath, &newRep); err != nil {
		return err
	}
	return compareReports(spec.EndToEnd, oldRep, newRep, w)
}

func compareReports(metrics []declared, oldRep, newRep report, w io.Writer) error {
	fmt.Fprintf(w, "old: commit %s seed %d   new: commit %s seed %d\n", oldRep.Commit, oldRep.Seed, newRep.Commit, newRep.Seed)
	if oldRep.Seed != newRep.Seed || oldRep.Smoke != newRep.Smoke {
		fmt.Fprintln(w, "warning: the runs differ in seed or size, so simulated numbers are not expected to match")
	}
	news := make(map[string]workloadReport)
	for _, wr := range newRep.Workloads {
		news[wr.Name] = wr
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tchange\tbound\tspread\tverdict")
	bad := 0
	for _, o := range oldRep.Workloads {
		n, ok := news[o.Name]
		if !ok {
			continue
		}
		for _, m := range metrics {
			ov, nv := o.EndToEnd[m.Name].Value, n.EndToEnd[m.Name].Value
			sp := max(spread(o.Samples[m.Name]), spread(n.Samples[m.Name]))
			v := verdict(m, ov, nv, sp)
			if v == worse {
				bad++
			}
			change := 0.0
			if ov != 0 {
				change = (nv - ov) / ov
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%% %s\t%.2f%%\t%s\n",
				o.Name, m.Name, ov, nv, 100*change, 100*m.Bound, m.Better, 100*sp, v)
		}
		// failed_frac has bound 0: any rise is a regression.
		of, nf := float64(o.Failed)/float64(o.Requests), float64(n.Failed)/float64(n.Requests)
		v := within
		if nf > of {
			v = worse
			bad++
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%d/%d\t%d/%d\t\t0 lower\t\t%s\n", o.Name, o.Failed, o.Requests, n.Failed, n.Requests, v)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse than their bound allows", bad)
	}
	return nil
}
