package experiments

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// Main is the shared entry point of the per-experiment commands: it runs
// the generator and prints the report — plain text, markdown with -md, or
// JSON with -json. The flag set is named after the experiment so that an
// unknown flag produces a usage message identifying which experiment the
// command regenerates.
func Main(name string, run func() (*Report, error)) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	md := fs.Bool("md", false, "emit a markdown table")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage of %s (regenerates experiment %q):\n", filepath.Base(os.Args[0]), name)
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	r, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if err := Emit(os.Stdout, r, *md, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
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
