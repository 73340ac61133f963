package experiments

import (
	"fmt"
	"io"
)

// Generator is one experiment entry point. Cells declares the grid of
// simulation runs the experiment consumes (nil for experiments that only
// render static configuration); Run assembles the report, resolving every
// measurement through the cell cache.
type Generator struct {
	Name  string
	Cells func() []Cell
	Run   func() (*Report, error)
}

// All lists every experiment in paper order.
func All() []Generator {
	return []Generator{
		{"table-1", nil, Table1},
		{"figure-2", Fig2Cells, Fig2},
		{"figure-4", Fig4Cells, Fig4},
		{"figure-5", Fig5Cells, Fig5},
		{"figure-6", Fig6Cells, Fig6},
		{"figure-7", Fig7Cells, Fig7},
		{"sec-4.3-valuepred", ValuePredCells, ValuePred},
		{"table-2", nil, Table2},
		{"figure-10", Fig10Cells, Fig10},
		{"footnote-1-decrypt", DecryptParityCells, DecryptParity},
	}
}

// AllCells flattens the declared grids of every experiment, in paper
// order. Sweeping the result prefetches the entire suite; the
// generators then assemble their reports from cache hits alone.
func AllCells() []Cell {
	var cells []Cell
	for _, g := range All() {
		if g.Cells != nil {
			cells = append(cells, g.Cells()...)
		}
	}
	return cells
}

// Emit writes a report in the selected rendering (text by default; JSON
// wins over markdown when both are requested).
func Emit(w io.Writer, r *Report, md, asJSON bool) error {
	switch {
	case asJSON:
		b, err := r.JSON()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, string(b))
		return err
	case md:
		_, err := fmt.Fprint(w, r.Markdown())
		return err
	default:
		_, err := fmt.Fprint(w, r.Text())
		return err
	}
}
