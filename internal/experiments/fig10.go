package experiments

import (
	"fmt"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
)

// fig10Bars lists the figure's machine/kernel combinations in bar order.
var fig10Bars = []struct {
	feat isa.Feature
	cfg  ooo.Config
}{
	{isa.FeatNoRot, ooo.FourWide},
	{isa.FeatOpt, ooo.FourWide},
	{isa.FeatOpt, ooo.FourWidePlus},
	{isa.FeatOpt, ooo.EightWidePlus},
	{isa.FeatOpt, ooo.Dataflow},
}

// Fig10Cells declares the Figure 10 grid: per cipher, the rotate baseline,
// the no-rotate original, and every bar.
func Fig10Cells() []Cell {
	var cells []Cell
	for _, name := range kernels.Names() {
		cells = append(cells, Cell{Kind: CellKernel, Cipher: name, Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: SessionBytes, Seed: DefaultSeed})
		for _, bar := range fig10Bars {
			cells = append(cells, Cell{Kind: CellKernel, Cipher: name, Feat: bar.feat, Cfg: bar.cfg, Session: SessionBytes, Seed: DefaultSeed})
		}
	}
	return cells
}

// Fig10 reproduces Figure 10: speedups of the kernels over the baseline
// machine running the original code *with rotates* (the paper's
// normalization target). Orig/4W shows the penalty of lacking rotate
// instructions; the remaining bars run the fully optimized kernels on
// progressively larger machines.
func Fig10() (*Report, error) {
	r := &Report{
		ID:    "figure-10",
		Title: "Relative performance of the optimized kernels (speedup vs original-with-rotates on 4W)",
		Columns: []string{
			"Cipher", "Orig(norot)/4W", "Opt/4W", "Opt/4W+", "Opt/8W+", "Opt/DF",
		},
	}
	sums := make([]float64, len(fig10Bars))
	var sumNoRotGain float64
	for _, name := range kernels.Names() {
		base, err := timed(name, isa.FeatRot, ooo.FourWide, SessionBytes, DefaultSeed)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for i, bar := range fig10Bars {
			st, err := timed(name, bar.feat, bar.cfg, SessionBytes, DefaultSeed)
			if err != nil {
				return nil, err
			}
			sp := float64(base.Cycles) / float64(st.Cycles)
			sums[i] += sp
			row = append(row, fmt.Sprintf("%.2f", sp))
			if i == 1 { // Opt/4W vs the no-rotate original
				noRot, err := timed(name, isa.FeatNoRot, ooo.FourWide, SessionBytes, DefaultSeed)
				if err != nil {
					return nil, err
				}
				sumNoRotGain += float64(noRot.Cycles) / float64(st.Cycles)
			}
		}
		r.Rows = append(r.Rows, row)
	}
	n := float64(len(r.Rows)) // one row per cipher so far
	avg := []string{"average"}
	for _, s := range sums {
		avg = append(avg, fmt.Sprintf("%.2f", s/n))
	}
	r.Rows = append(r.Rows, avg)
	r.Note = fmt.Sprintf(
		"Headline: Opt/4W average speedup %.0f%% over the rotate baseline, %.0f%% over a baseline without rotates (paper: 59%% and 74%%).",
		100*(sums[1]/n-1),
		100*(sumNoRotGain/n-1))
	return r, nil
}
