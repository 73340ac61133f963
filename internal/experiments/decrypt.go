package experiments

import (
	"fmt"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
)

// DecryptParityCells declares the footnote-1 grid: per cipher, one timed
// session in each direction.
func DecryptParityCells() []Cell {
	var cells []Cell
	for _, name := range kernels.Names() {
		cells = append(cells,
			Cell{Kind: CellKernel, Cipher: name, Feat: isa.FeatOpt, Cfg: ooo.FourWide, Session: SessionBytes, Seed: DefaultSeed},
			Cell{Kind: CellDecrypt, Cipher: name, Feat: isa.FeatOpt, Cfg: ooo.FourWide, Session: SessionBytes, Seed: DefaultSeed},
		)
	}
	return cells
}

// DecryptParity verifies the paper's footnote 1: "Because of the symmetry
// between the encryption and decryption algorithms, performance was
// comparable for these codes for all experiments." It times both
// directions of every kernel on the baseline machine and reports the
// ratio.
func DecryptParity() (*Report, error) {
	r := &Report{
		ID:    "footnote-1-decrypt",
		Title: "Decryption vs encryption performance (4W, optimized kernels, 4KB)",
		Note:  "Paper footnote 1: symmetry makes the two directions perform comparably.",
		Columns: []string{
			"Cipher", "Encrypt cycles", "Decrypt cycles", "Dec/Enc",
		},
	}
	for _, name := range kernels.Names() {
		enc, err := timed(name, isa.FeatOpt, ooo.FourWide, SessionBytes, DefaultSeed)
		if err != nil {
			return nil, err
		}
		dec, err := timedDecrypt(name, isa.FeatOpt, ooo.FourWide, SessionBytes, DefaultSeed)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{
			name,
			fmt.Sprint(enc.Cycles),
			fmt.Sprint(dec.Cycles),
			fmt.Sprintf("%.2f", float64(dec.Cycles)/float64(enc.Cycles)),
		})
	}
	return r, nil
}
