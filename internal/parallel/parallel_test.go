package parallel

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudburst/internal/vtime"
)

// TestMapOrdering: results land in input order even when completion
// order is adversarially reversed (later indexes finish first).
func TestMapOrdering(t *testing.T) {
	defer SetWidth(SetWidth(4))

	const n = 16
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}

	// Gate each task on the completion of every *higher* index that
	// shares its worker wave, forcing out-of-order completion: a
	// barrier admits all workers, then tasks with higher indexes
	// release lower ones.
	release := make([]chan struct{}, n)
	for i := range release {
		release[i] = make(chan struct{})
	}
	var started sync.WaitGroup
	started.Add(4)
	go func() {
		started.Wait()
		// All four workers are inside a task; release in reverse
		// index order so high indexes complete first.
		for i := n - 1; i >= 0; i-- {
			close(release[i])
		}
	}()
	var onceEach [4]sync.Once
	got := Map(items, func(i, v int) string {
		if i < 4 {
			onceEach[i].Do(started.Done)
		}
		<-release[i]
		return fmt.Sprintf("row-%d", v*v)
	})

	for i, s := range got {
		if want := fmt.Sprintf("row-%d", i*i); s != want {
			t.Fatalf("out[%d] = %q, want %q", i, s, want)
		}
	}
}

// TestMapWidthOneIsSerial: width 1 runs inline on the calling
// goroutine, in order, with no worker spawn.
func TestMapWidthOneIsSerial(t *testing.T) {
	defer SetWidth(SetWidth(1))

	var order []int
	Map([]int{10, 20, 30}, func(i, v int) int {
		order = append(order, i) // safe: serial path, no goroutines
		return v
	})
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("serial execution order = %v, want [0 1 2]", order)
	}

	// A panic at width 1 must propagate immediately: tasks after the
	// panicking one never run (exact serial-loop semantics).
	ran := 0
	func() {
		defer func() { recover() }()
		Map([]int{0, 1, 2}, func(i, v int) int {
			ran++
			if i == 1 {
				panic("boom")
			}
			return v
		})
	}()
	if ran != 2 {
		t.Fatalf("width-1 panic ran %d tasks, want 2 (inline propagation)", ran)
	}
}

// TestMapPanicPropagation: parallel panics surface as a *TaskPanic for
// the lowest panicking index, after every task has run.
func TestMapPanicPropagation(t *testing.T) {
	defer SetWidth(SetWidth(4))

	ran := make([]bool, 8)
	err := func() (tp *TaskPanic) {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			var ok bool
			if tp, ok = r.(*TaskPanic); !ok {
				t.Fatalf("recovered %T, want *TaskPanic", r)
			}
		}()
		MapN(8, func(i int) int {
			ran[i] = true
			if i == 5 || i == 2 {
				panic(errors.New("cell poisoned"))
			}
			return i
		})
		return nil
	}()
	if err == nil {
		t.Fatal("Map did not re-panic")
	}
	if err.Index != 2 {
		t.Fatalf("TaskPanic.Index = %d, want 2 (lowest panicking index)", err.Index)
	}
	if e, ok := err.Value.(error); !ok || e.Error() != "cell poisoned" {
		t.Fatalf("TaskPanic.Value = %v, want the original error", err.Value)
	}
	if len(err.Stack) == 0 {
		t.Fatal("TaskPanic.Stack empty")
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("task %d never ran — a panic must not cancel siblings", i)
		}
	}
}

// TestMapCapturesKernelProcessPanic: a panic raised inside a kernel
// process surfaces from that cell's Run on the worker goroutine, so Map
// records it as the cell's *TaskPanic while the other cells finish.
func TestMapCapturesKernelProcessPanic(t *testing.T) {
	defer SetWidth(SetWidth(2))

	var finished [4]vtime.Time // each cell writes its own slot
	tp := func() (tp *TaskPanic) {
		defer func() { tp, _ = recover().(*TaskPanic) }()
		MapN(len(finished), func(i int) struct{} {
			k := vtime.NewKernel(int64(i))
			defer k.Stop()
			k.Run("cell", func() {
				k.Go("worker", func() {
					k.Sleep(time.Millisecond)
					if i == 1 {
						panic("cell poisoned")
					}
				})
				k.Sleep(time.Duration(i+1) * time.Second)
			})
			finished[i] = k.Now()
			return struct{}{}
		})
		return nil
	}()
	if tp == nil {
		t.Fatal("Map did not re-panic with a *TaskPanic")
	}
	if msg, _ := tp.Value.(string); tp.Index != 1 || !strings.Contains(msg, `"worker"`) || !strings.Contains(msg, "cell poisoned") {
		t.Fatalf("TaskPanic{Index: %d, Value: %v}, want index 1 naming the process and its panic", tp.Index, tp.Value)
	}
	for i, at := range finished {
		want := vtime.Time(time.Duration(i+1) * time.Second)
		if i == 1 {
			want = 0
		}
		if at != want {
			t.Fatalf("cell %d finished at %v, want %v (a poisoned cell costs only itself)", i, at, want)
		}
	}
}

// TestMapNEmptyAndWidthClamp: degenerate shapes.
func TestMapNEmptyAndWidthClamp(t *testing.T) {
	defer SetWidth(SetWidth(64))
	if got := MapN(0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("MapN(0) = %v", got)
	}
	// Width clamps to len(items); 2 items under width 64 still fill
	// both slots correctly.
	got := Map([]string{"a", "b"}, func(i int, s string) string { return s + s })
	if got[0] != "aa" || got[1] != "bb" {
		t.Fatalf("clamped map = %v", got)
	}
}

// TestSetWidthRestore: SetWidth returns the previous override so
// callers can nest/restore.
func TestSetWidthRestore(t *testing.T) {
	SetWidth(0)
	if prev := SetWidth(3); prev != 0 {
		t.Fatalf("first override returned %d, want 0", prev)
	}
	if prev := SetWidth(0); prev != 3 {
		t.Fatalf("restore returned %d, want 3", prev)
	}
}
