package trace

import (
	"slices"
	"time"
)

// Analyze folds a trace's span tree into its critical-path category
// breakdown: every instant of the root window [root.Start, root.End]
// is charged to exactly one category, so the ByCat columns sum to
// Wall. The covering span that wins an instant is the deepest one
// (child beats parent); among equally deep covering spans the
// latest-opened wins, which gives overlapping siblings stack
// semantics — a cache read opened during a function body shadows the
// body for its duration, an Anna round trip opened inside the read
// shadows the read. Instants only the root covers are Unattributed:
// wall time no instrumented component accounts for, which the fig14
// acceptance gate bounds from above.
func Analyze(t *Trace) Summary {
	s := Summary{ReqID: t.ReqID, Attempts: t.Attempt + 1}
	if len(t.Spans) == 0 {
		return s
	}
	root := t.Spans[0]
	if root.End <= root.Start {
		return s
	}
	s.Wall = root.End.Sub(root.Start)

	// Depth of every span via parent links (parents always precede
	// children in the arena, so one forward pass suffices).
	depths := make([]int32, len(t.Spans))
	for i := 1; i < len(t.Spans); i++ {
		depths[i] = depths[t.Spans[i].Parent] + 1
	}

	// Interval sweep: clamp spans to the root window, collect the
	// distinct boundaries, then attribute each elementary interval to
	// its winning span. Spans per trace are tens, not thousands, so the
	// O(spans × boundaries) scan is cheap and allocation-bounded.
	bounds := make([]int64, 0, 2*len(t.Spans))
	for _, sp := range t.Spans {
		a, b := clamp(sp, root)
		if b <= a {
			continue
		}
		bounds = append(bounds, a, b)
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)

	for bi := 0; bi+1 < len(bounds); bi++ {
		a, b := bounds[bi], bounds[bi+1]
		winner, wDepth := 0, int32(-1)
		for i, sp := range t.Spans {
			sa, sb := clamp(sp, root)
			if sa > a || sb < b {
				continue
			}
			// Deepest covering span wins; ties go to the later index
			// (the most recently opened span).
			if depths[i] > wDepth || (depths[i] == wDepth && i > winner) {
				winner, wDepth = i, depths[i]
			}
		}
		cat := t.Spans[winner].Cat
		if winner == 0 {
			cat = Unattributed
		}
		s.ByCat[cat] += time.Duration(b - a)
	}
	return s
}

func clamp(sp, root Span) (int64, int64) {
	return max(int64(sp.Start), int64(root.Start)), min(int64(sp.End), int64(root.End))
}
