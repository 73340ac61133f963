package experiments

import (
	"fmt"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
)

// Fig6Sessions are the session lengths swept in Figure 6.
var Fig6Sessions = []int{16, 64, 256, 1024, 4096, 16384, 65536}

// fig6Session rounds a swept session length up to the cipher's block
// granule (sessions must cover whole blocks; only the tiny sizes round).
func fig6Session(name string, s int) (int, error) {
	k, err := kernelBlock(name)
	if err != nil {
		return 0, err
	}
	if rem := s % k; rem != 0 {
		s += k - rem
	}
	return s, nil
}

// Fig6Cells declares the Figure 6 grid: per cipher, one key-setup run and
// one timed session per swept length.
func Fig6Cells() []Cell {
	var cells []Cell
	for _, name := range kernels.Names() {
		cells = append(cells, Cell{Kind: CellSetup, Cipher: name, Feat: isa.FeatRot, Cfg: ooo.FourWide, Seed: DefaultSeed})
		for _, s := range Fig6Sessions {
			sess, err := fig6Session(name, s)
			if err != nil {
				continue
			}
			cells = append(cells, Cell{Kind: CellKernel, Cipher: name, Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: sess, Seed: DefaultSeed})
		}
	}
	return cells
}

// Fig6 reproduces Figure 6: key-setup cost as a fraction of total session
// time (setup plus encryption) for increasing session lengths, on the
// baseline machine with the original (rotate) kernels.
func Fig6() (*Report, error) {
	r := &Report{
		ID:    "figure-6",
		Title: "Setup cost as a fraction of session run time (4W, original kernels)",
	}
	r.Columns = append([]string{"Cipher", "Setup cycles"}, func() []string {
		var c []string
		for _, s := range Fig6Sessions {
			c = append(c, fmt.Sprintf("%dB", s))
		}
		return c
	}()...)
	for _, name := range kernels.Names() {
		setup, err := timedSetup(name, isa.FeatRot, ooo.FourWide, DefaultSeed)
		if err != nil {
			return nil, err
		}
		row := []string{name, fmt.Sprint(setup.Cycles)}
		for _, s := range Fig6Sessions {
			sess, err := fig6Session(name, s)
			if err != nil {
				return nil, err
			}
			st, err := timed(name, isa.FeatRot, ooo.FourWide, sess, DefaultSeed)
			if err != nil {
				return nil, err
			}
			frac := float64(setup.Cycles) / float64(setup.Cycles+st.Cycles)
			row = append(row, fmt.Sprintf("%.1f%%", 100*frac))
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

func kernelBlock(name string) (int, error) {
	k, err := kernelsGet(name)
	if err != nil {
		return 0, err
	}
	if k.BlockBytes < 1 {
		return 1, nil
	}
	return k.BlockBytes, nil
}
