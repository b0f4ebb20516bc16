// Package parallel runs independent simulations on a bounded pool of
// worker goroutines while keeping every output table byte-identical to
// a serial run.
//
// The deterministic vtime kernel serializes all processes *within* one
// cluster, so a single experiment cannot be sped up by adding cores —
// but every multi-point figure (consistency-mode rows, thread ladders,
// the load×scheduler grid, chaos cells) builds an isolated cluster +
// kernel per point. Those points are independent islands: Map runs
// each one on a worker goroutine with its own kernel and writes the
// result into a per-index slot, so aggregation order — and
// therefore every Print() table — is exactly the serial order, while
// wall time divides by the worker width.
//
// The width is whatever SetWidth last set (tests, the cb-bench
// -parallel flag), else GOMAXPROCS. Width 1 runs the tasks inline on
// the calling goroutine — not just equivalent to the old serial loops
// but literally that code shape, panics included.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// widthOverride, when positive, wins over GOMAXPROCS. Stored
// atomically so tests and the bench harness can flip it around
// concurrent Map calls.
var widthOverride atomic.Int64

// SetWidth forces the worker width for subsequent Map calls: n >= 1
// pins it (1 = serial), n <= 0 restores the default resolution. It
// returns the previous override (0 if none) so callers can restore it.
func SetWidth(n int) int {
	if n < 0 {
		n = 0
	}
	return int(widthOverride.Swap(int64(n)))
}

// Width reports the worker width a Map call would use right now,
// before clamping to the item count.
func Width() int {
	if n := widthOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// TaskPanic is what Map re-panics with when a task panicked: the
// lowest panicking index wins (deterministic regardless of completion
// order), and the original value and stack ride along.
type TaskPanic struct {
	Index int
	Value any
	Stack []byte
}

func (p *TaskPanic) Error() string {
	return fmt.Sprintf("parallel.Map: task %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// Map runs fn over every item on min(Width(), len(items)) workers and
// returns the results indexed exactly like items. Tasks are claimed in
// index order from a shared counter, so early indexes start first and
// the table's expensive points overlap the cheap ones.
//
// Panics inside fn are captured per index; after all workers drain,
// Map re-panics with a *TaskPanic for the lowest panicking index.
// Remaining tasks still run — a poisoned cell costs its own result,
// not the whole figure. At width 1 the tasks run inline serially and
// panics propagate immediately, exactly like the loop Map replaced.
func Map[T, R any](items []T, fn func(i int, item T) R) []R {
	out := make([]R, len(items))
	width := Width()
	if width > len(items) {
		width = len(items)
	}
	if width <= 1 {
		for i, item := range items {
			out[i] = fn(i, item)
		}
		return out
	}

	panics := make([]*TaskPanic, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				runTask(items, out, panics, fn, i)
			}
		}()
	}
	wg.Wait()

	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return out
}

// runTask executes one task with panic capture into its index slot.
func runTask[T, R any](items []T, out []R, panics []*TaskPanic, fn func(int, T) R, i int) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = &TaskPanic{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	out[i] = fn(i, items[i])
}

// MapN is Map over the index range [0, n): for runners whose points
// are naturally "row i of the table" rather than a slice of inputs.
func MapN[R any](n int, fn func(i int) R) []R {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return Map(idx, func(i, _ int) R { return fn(i) })
}
