package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Supervision tests run on phantom cells: grid points whose execution is
// intercepted by the test override before the unknown cipher could error,
// so forcing a panic, a hang or a cancellation costs microseconds instead
// of a simulation.

func phantomCell(i int) Cell {
	return Cell{Kind: CellCount, Cipher: fmt.Sprintf("phantom-%d", i), Session: 1, Seed: int64(i)}
}

// withOverride installs the exec override around a clean cell cache and
// tears both down with the test.
func withOverride(t *testing.T, f func(c Cell, r *cellResult) bool) {
	t.Helper()
	ResetCache()
	execOverride = f
	t.Cleanup(func() {
		execOverride = nil
		ResetCache()
	})
}

func TestSweepPanicIsolation(t *testing.T) {
	withOverride(t, func(c Cell, r *cellResult) bool {
		if c.Cipher == "phantom-2" {
			panic("forced cell panic")
		}
		r.n = uint64(c.Seed)
		return true
	})
	cells := []Cell{phantomCell(1), phantomCell(2), phantomCell(3)}
	out := SweepObservedCtx(context.Background(), cells, nil)
	if out.Cancelled != nil {
		t.Fatalf("uncancelled sweep reported Cancelled=%v", out.Cancelled)
	}
	if done, panicked := out.Count(CellDone), out.Count(CellPanicked); done != 2 || panicked != 1 {
		t.Fatalf("done=%d panicked=%d, want 2/1 (%+v)", done, panicked, out.Cells)
	}
	po := out.Poisoned()
	var pe *CellPanicError
	if len(po) != 1 || !errors.As(po[0].Err, &pe) {
		t.Fatalf("poisoned = %+v, want one CellPanicError", po)
	}
	if pe.Value != "forced cell panic" || pe.Cell.Cipher != "phantom-2" {
		t.Fatalf("panic error carries value %v / cell %s", pe.Value, pe.Cell.Cipher)
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatalf("panic error captured no stack: %q", pe.Stack)
	}
	// The panic resurfaces deterministically wherever the cell is consumed.
	r := getCell(cells[1], false)
	if !errors.As(r.err, &pe) {
		t.Fatalf("cached cell error = %v, want the recovered panic", r.err)
	}
	// The healthy cells were unharmed.
	if r := getCell(cells[2], false); r.err != nil || r.n != 3 {
		t.Fatalf("neighbour cell: n=%d err=%v", r.n, r.err)
	}
}

func TestSweepCellTimeout(t *testing.T) {
	hungReturned := make(chan struct{})
	withOverride(t, func(c Cell, r *cellResult) bool {
		if c.Cipher == "phantom-1" {
			defer close(hungReturned)
			time.Sleep(300 * time.Millisecond)
		}
		r.n = 7
		return true
	})
	// The sweep abandons the hung cell, whose goroutine runs on after the
	// test body and read execOverride on its way in. Cleanups run last
	// registered first, so this wait holds withOverride's restore until
	// that cell has returned.
	t.Cleanup(func() { <-hungReturned })
	defer SetCellDeadline(SetCellDeadline(25 * time.Millisecond))
	out := SweepObservedCtx(context.Background(), []Cell{phantomCell(1), phantomCell(2)}, nil)
	if timedOut, done := out.Count(CellTimedOut), out.Count(CellDone); timedOut != 1 || done != 1 {
		t.Fatalf("timed-out=%d done=%d, want 1/1 (%+v)", timedOut, done, out.Cells)
	}
	var te *CellTimeoutError
	if po := out.Poisoned(); len(po) != 1 || !errors.As(po[0].Err, &te) {
		t.Fatalf("poisoned = %+v, want one CellTimeoutError", po)
	} else if te.Limit != 25*time.Millisecond {
		t.Fatalf("timeout limit = %v", te.Limit)
	}
}

func TestSweepCancellationAndResume(t *testing.T) {
	prev := SetParallelism(1) // serial path: deterministic dispatch order
	defer SetParallelism(prev)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	withOverride(t, func(c Cell, r *cellResult) bool {
		if ran.Add(1) == 2 {
			cancel() // interrupt while the second cell is "executing"
		}
		r.n = 1
		return true
	})
	cells := []Cell{phantomCell(1), phantomCell(2), phantomCell(3), phantomCell(4), phantomCell(5)}
	out := SweepObservedCtx(ctx, cells, nil)
	if !errors.Is(out.Cancelled, context.Canceled) {
		t.Fatalf("Cancelled = %v, want context.Canceled", out.Cancelled)
	}
	if done, skipped := out.Count(CellDone), out.Count(CellSkipped); done != 2 || skipped != 3 {
		t.Fatalf("done=%d skipped=%d, want 2/3 (%+v)", done, skipped, out.Cells)
	}
	// The cell boundary is the only stopping point: the two dispatched
	// cells finished, and exactly the three never dispatched are skipped.
	for i, co := range out.Cells {
		if want := i >= 2; (co.State == CellSkipped) != want || co.Cell != cells[i] {
			t.Fatalf("cell %d: %v %s, want skipped=%v", i, co.Cell, co.State, want)
		}
	}
	// Re-run under a fresh context: the two completed cells are recalled
	// from cache (no re-execution), the three skipped ones run now.
	out2 := SweepObservedCtx(context.Background(), cells, nil)
	if !out2.Clean() || out2.Count(CellDone) != 5 {
		t.Fatalf("resumed sweep: clean=%v done=%d (%+v)", out2.Clean(), out2.Count(CellDone), out2.Cells)
	}
	if got := ran.Load(); got != 5 {
		t.Fatalf("executions across interrupt+resume = %d, want 5 (no redo)", got)
	}
}
