package experiments

import (
	"sync/atomic"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/ooo"
)

// Per-cell simulation budget. The sweep's default is the exact serial
// path — every published table and figure is regenerated bit-identically.
// A budget switches CellKernel timing cells (the bulk of sweep work) to
// the harness's approximate execution mode, interval sampling
// (extrapolated cycles with a reported dispersion bound). Cells that have
// no trace to address, or are too short to sample, fall back to exact
// runs on their own; ApproxCellCount says how many cells actually took
// the approximate path, so front-ends can refuse to write golden outputs
// produced under a budget.

// BudgetMode selects how CellKernel cells execute.
type BudgetMode int

const (
	// BudgetExact is the golden serial path (the default).
	BudgetExact BudgetMode = iota
	// BudgetSampled runs interval sampling.
	BudgetSampled
)

// CellBudget configures the approximate execution of CellKernel cells.
// Zero-valued fields take the harness defaults.
type CellBudget struct {
	Mode BudgetMode
	// SampleIntervals and SampleIntervalInsts are K and L for
	// BudgetSampled.
	SampleIntervals     int
	SampleIntervalInsts int
	// WarmupInsts overrides the per-interval warmup prefix.
	WarmupInsts int
}

var (
	cellBudget  atomic.Pointer[CellBudget]
	approxCells atomic.Int64
)

// SetCellBudget installs the budget for subsequent cell executions and
// returns the previous one (nil means exact). It does not invalidate the
// cell cache: cells already executed keep their results, so front-ends
// set the budget before the first sweep (or call ResetCache).
func SetCellBudget(b *CellBudget) *CellBudget {
	return cellBudget.Swap(b)
}

// GetCellBudget returns the installed budget (nil means exact).
func GetCellBudget() *CellBudget { return cellBudget.Load() }

// ApproxCellCount returns how many cells have been genuinely sampled
// since process start. Exact fallbacks under a budget do not count.
func ApproxCellCount() int64 { return approxCells.Load() }

// timeKernelCell executes a CellKernel cell, honoring the installed
// budget. The returned stats are exact when the budget is nil (or the
// harness fell back); otherwise they carry the mode's documented error
// semantics. An exact live cell runs its session on a live machine, with
// Stats identical to a replay's; sampling needs the recorded trace's
// windows, so under BudgetSampled every cell records.
func timeKernelCell(c Cell, live bool) (*ooo.Stats, error) {
	b := cellBudget.Load()
	if b == nil || b.Mode != BudgetSampled {
		if live {
			w, err := harness.NewWorkload(c.Cipher, c.Session, c.Seed)
			if err != nil {
				return nil, err
			}
			return harness.TimeWorkload(w, c.Feat, c.Cfg)
		}
		return harness.TimeKernel(c.Cipher, c.Feat, c.Cfg, c.Session, c.Seed)
	}
	st, rep, err := harness.TimeKernelSampled(c.Cipher, c.Feat, c.Cfg, c.Session, c.Seed,
		harness.SampleOptions{Intervals: b.SampleIntervals, IntervalInsts: b.SampleIntervalInsts, WarmupInsts: b.WarmupInsts})
	if err == nil && !rep.Exact {
		approxCells.Add(1)
	}
	return st, err
}
