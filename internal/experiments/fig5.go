package experiments

import (
	"fmt"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
)

// Fig5Cells declares the Figure 5 grid: per cipher, the dataflow machine
// and every single-bottleneck configuration. (A bottleneck whose config
// cannot be built is omitted here; Fig5 itself surfaces the error.)
func Fig5Cells() []Cell {
	var cells []Cell
	for _, name := range kernels.Names() {
		cells = append(cells, Cell{Kind: CellKernel, Cipher: name, Feat: isa.FeatRot, Cfg: ooo.Dataflow, Session: SessionBytes, Seed: DefaultSeed})
		for _, bn := range ooo.Bottlenecks {
			cfg, err := ooo.BottleneckConfig(bn)
			if err != nil {
				continue
			}
			cells = append(cells, Cell{Kind: CellKernel, Cipher: name, Feat: isa.FeatRot, Cfg: cfg, Session: SessionBytes, Seed: DefaultSeed})
		}
	}
	return cells
}

// Fig5 reproduces Figure 5: for each cipher, the performance of the
// dataflow machine with a single bottleneck re-inserted, relative to the
// unconstrained dataflow machine (1.00 = no impact). The "All" column is
// the full baseline.
func Fig5() (*Report, error) {
	r := &Report{
		ID:    "figure-5",
		Title: "Bottleneck analysis: performance relative to the dataflow machine",
		Note:  "Original kernels with rotates, 4KB sessions. 1.00 means the bottleneck does not bind.",
	}
	r.Columns = append([]string{"Cipher"}, ooo.Bottlenecks...)
	for _, name := range kernels.Names() {
		df, err := timed(name, isa.FeatRot, ooo.Dataflow, SessionBytes, DefaultSeed)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, bn := range ooo.Bottlenecks {
			cfg, err := ooo.BottleneckConfig(bn)
			if err != nil {
				return nil, err
			}
			st, err := timed(name, isa.FeatRot, cfg, SessionBytes, DefaultSeed)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", float64(df.Cycles)/float64(st.Cycles)))
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}
