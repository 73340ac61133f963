package experiments

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"cryptoarch/internal/harness"
)

// Supervised cell execution. A sweep is a long-lived batch job over an
// untrusted grid: any one cell can error, panic (a kernel or model bug),
// or wedge (a pathological configuration). Supervision isolates each of
// those to the cell that caused it — a recovered panic or an expired
// wall-clock watchdog becomes a typed error on that cell's slot, exactly
// like an ordinary execution error, and every other cell proceeds. The
// sweep itself never dies; the damage report rides out on SweepOutcome.

// CellPanicError is a panic recovered from one cell's execution, converted
// into that cell's error. The stack is captured at the recovery site.
type CellPanicError struct {
	Cell  Cell
	Value any
	Stack []byte
}

func (e *CellPanicError) Error() string {
	return fmt.Sprintf("experiments: cell %s panicked: %v", e.Cell.label(), e.Value)
}

// CellTimeoutError marks a cell that exceeded the per-cell wall-clock
// deadline. It layers real-time supervision over the simulated-time
// CellBudget: the budget bounds how much the simulator measures, the
// deadline bounds how long the host is allowed to take doing it.
type CellTimeoutError struct {
	Cell  Cell
	Limit time.Duration
}

func (e *CellTimeoutError) Error() string {
	return fmt.Sprintf("experiments: cell %s exceeded the %v wall-clock deadline", e.Cell.label(), e.Limit)
}

// cellDeadlineNS holds the per-cell wall-clock watchdog (0 = disabled).
var cellDeadlineNS atomic.Int64

// SetCellDeadline installs a per-cell wall-clock deadline (0 disables,
// the default) and returns the previous value. A cell that runs past the
// deadline is abandoned — its goroutine's eventual result is discarded —
// and its slot carries a CellTimeoutError.
func SetCellDeadline(d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	return time.Duration(cellDeadlineNS.Swap(int64(d)))
}

// CellDeadline returns the current per-cell wall-clock deadline.
func CellDeadline() time.Duration { return time.Duration(cellDeadlineNS.Load()) }

// execOverride, when non-nil, may replace a cell's execution entirely —
// the test seam for forcing panics and hangs without a genuinely broken
// kernel. Set it only while no sweep is running.
var execOverride func(c Cell, r *cellResult) bool

// execBody runs the cell's real work (or the test override).
func (r *cellResult) execBody(c Cell) {
	if h := execOverride; h != nil && h(c, r) {
		return
	}
	r.exec(c)
}

// execRecovered is execBody with panic isolation: a panic anywhere under
// the cell — kernel build, trace recording, the engine's cycle loop —
// lands on this cell's error slot with its stack, and the worker lives on.
func (r *cellResult) execRecovered(c Cell) {
	defer func() {
		if v := recover(); v != nil {
			r.err = &CellPanicError{Cell: c, Value: v, Stack: debug.Stack()}
			if reg := harness.Metrics(); reg != nil {
				reg.Counter("sweep.panics").Inc()
			}
		}
	}()
	r.execBody(c)
}

// execSupervised adds the wall-clock watchdog around execRecovered. The
// simulator has no preemption points, so an expired deadline cannot stop
// the run mid-cycle; instead the cell executes into a private result and
// is abandoned on timeout — its late writes land in a struct nothing else
// reads, so there is no race, and the published slot carries the timeout.
func (r *cellResult) execSupervised(c Cell) {
	d := CellDeadline()
	if d <= 0 {
		r.execRecovered(c)
		return
	}
	tmp := &cellResult{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tmp.execRecovered(c)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		r.stats, r.n, r.mix, r.vp, r.err = tmp.stats, tmp.n, tmp.mix, tmp.vp, tmp.err
	case <-t.C:
		r.err = &CellTimeoutError{Cell: c, Limit: d}
		if reg := harness.Metrics(); reg != nil {
			reg.Counter("sweep.timeouts").Inc()
		}
	}
}

// CellState classifies how one unique cell of a supervised sweep ended.
type CellState uint8

const (
	// CellDone: executed (or recalled from cache/store) without error.
	CellDone CellState = iota
	// CellFailed: executed and returned an ordinary error.
	CellFailed
	// CellPanicked: execution panicked; the recovered CellPanicError is on Err.
	CellPanicked
	// CellTimedOut: execution exceeded the wall-clock deadline.
	CellTimedOut
	// CellSkipped: never dispatched — the sweep was cancelled first.
	CellSkipped
)

func (s CellState) String() string {
	switch s {
	case CellDone:
		return "done"
	case CellFailed:
		return "failed"
	case CellPanicked:
		return "panicked"
	case CellTimedOut:
		return "timed-out"
	case CellSkipped:
		return "skipped"
	}
	return "unknown"
}

// CellOutcome is one unique cell's supervised result.
type CellOutcome struct {
	Cell  Cell
	State CellState
	Err   error
	Wall  time.Duration
}

// SweepOutcome is the damage report of a supervised sweep: one outcome per
// unique cell in dispatch order, plus the cancellation cause when the
// sweep stopped early.
type SweepOutcome struct {
	Cells []CellOutcome
	// Cancelled is the run context's error when the sweep was interrupted,
	// nil for a run-to-completion sweep.
	Cancelled error
}

// Count returns how many cells ended in the given state.
func (o *SweepOutcome) Count(s CellState) int {
	n := 0
	for i := range o.Cells {
		if o.Cells[i].State == s {
			n++
		}
	}
	return n
}

// Poisoned returns the cells whose failures are properties of the cell —
// errors, panics, timeouts — as opposed to cells an interrupted sweep
// never started.
func (o *SweepOutcome) Poisoned() []CellOutcome {
	var p []CellOutcome
	for _, co := range o.Cells {
		switch co.State {
		case CellFailed, CellPanicked, CellTimedOut:
			p = append(p, co)
		}
	}
	return p
}

// Clean reports a fully completed sweep with no poisoned cells.
func (o *SweepOutcome) Clean() bool {
	return o.Cancelled == nil && len(o.Poisoned()) == 0
}

// classifyCell maps a completed cell slot to its outcome state.
func classifyCell(r *cellResult) (CellState, error) {
	var pe *CellPanicError
	var te *CellTimeoutError
	switch {
	case r.err == nil:
		return CellDone, nil
	case errors.As(r.err, &pe):
		return CellPanicked, r.err
	case errors.As(r.err, &te):
		return CellTimedOut, r.err
	}
	return CellFailed, r.err
}
