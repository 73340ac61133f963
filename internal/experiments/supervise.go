package experiments

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"cryptoarch/internal/harness"
)

// Supervised cell execution. Any one cell of a sweep can error or panic
// (a kernel or model bug). Supervision isolates either to the cell that
// caused it — a recovered panic becomes a typed error on that cell's
// slot, exactly like an ordinary execution error, and every other cell
// proceeds. A cell cannot wedge: the emulator stops at its instruction
// budget and the timing engine at its idle and cycle bounds, each with
// an error. The sweep itself never dies; the damage report rides out on
// SweepOutcome.

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

// execOverride, when non-nil, may replace a cell's execution entirely —
// the test seam for forcing panics and cancellations without a genuinely
// broken kernel. Set it only while no sweep is running.
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

// CellState classifies how one unique cell of a supervised sweep ended.
type CellState uint8

const (
	// CellDone: executed (or recalled from cache/store) without error.
	CellDone CellState = iota
	// CellFailed: executed and returned an ordinary error.
	CellFailed
	// CellPanicked: execution panicked; the recovered CellPanicError is on Err.
	CellPanicked
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
// errors and panics — as opposed to cells an interrupted sweep never
// started.
func (o *SweepOutcome) Poisoned() []CellOutcome {
	var p []CellOutcome
	for _, co := range o.Cells {
		switch co.State {
		case CellFailed, CellPanicked:
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
	switch {
	case r.err == nil:
		return CellDone, nil
	case errors.As(r.err, &pe):
		return CellPanicked, r.err
	}
	return CellFailed, r.err
}
