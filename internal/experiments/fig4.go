package experiments

import (
	"fmt"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
)

// Fig4Cells declares the Figure 4 grid: per cipher, an instruction count
// and two timed sessions (baseline and dataflow).
func Fig4Cells() []Cell {
	var cells []Cell
	for _, name := range kernels.Names() {
		cells = append(cells,
			Cell{Kind: CellCount, Cipher: name, Feat: isa.FeatRot, Session: SessionBytes, Seed: DefaultSeed},
			Cell{Kind: CellKernel, Cipher: name, Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: SessionBytes, Seed: DefaultSeed},
			Cell{Kind: CellKernel, Cipher: name, Feat: isa.FeatRot, Cfg: ooo.Dataflow, Session: SessionBytes, Seed: DefaultSeed},
		)
	}
	return cells
}

// Fig4 reproduces Figure 4: encryption throughput in bytes per 1000
// cycles for the 1-CPI machine (pure instruction count), the baseline
// 4-wide model, and the dataflow upper bound, using the original kernels
// with rotate instructions. (The paper's fourth bar, a real 600 MHz Alpha
// 21264, is substituted by the native-Go throughput benchmarks in
// bench_test.go — see DESIGN.md.)
func Fig4() (*Report, error) {
	r := &Report{
		ID:    "figure-4",
		Title: "Cipher encryption performance (bytes/1000 cycles, 4KB CBC session)",
		Note:  "Original kernels with hardware rotates; DF = dataflow upper bound.",
		Columns: []string{
			"Cipher", "1 CPI", "4W", "DF", "4W IPC", "Insts/byte",
		},
	}
	for _, name := range kernels.Names() {
		insts, err := counted(name, isa.FeatRot, SessionBytes, DefaultSeed)
		if err != nil {
			return nil, err
		}
		st4, err := timed(name, isa.FeatRot, ooo.FourWide, SessionBytes, DefaultSeed)
		if err != nil {
			return nil, err
		}
		stDF, err := timed(name, isa.FeatRot, ooo.Dataflow, SessionBytes, DefaultSeed)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{
			name,
			fmt.Sprintf("%.2f", rate(SessionBytes, insts)),
			fmt.Sprintf("%.2f", rate(SessionBytes, st4.Cycles)),
			fmt.Sprintf("%.2f", rate(SessionBytes, stDF.Cycles)),
			fmt.Sprintf("%.2f", st4.IPC()),
			fmt.Sprintf("%.1f", float64(insts)/SessionBytes),
		})
	}
	return r, nil
}
