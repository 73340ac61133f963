package experiments

import (
	"fmt"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
)

// kernelsGet indirection keeps the kernels import local to this package's
// helpers.
func kernelsGet(name string) (*kernels.Kernel, error) { return kernels.Get(name) }

// opMix is the dynamic instruction-class histogram of one kernel session.
type opMix struct {
	counts [isa.NumClasses]uint64
	total  uint64
}

// measureOpMix buckets every committed instruction of one cipher session
// by class. The stream comes from the harness trace cache, so the mix
// measurement shares (or seeds) the recording the timing models replay.
func measureOpMix(cipher string, feat isa.Feature, session int, seed int64) (opMix, error) {
	var mix opMix
	src, _, err := harness.StreamKernel(cipher, feat, session, seed)
	if err != nil {
		return mix, err
	}
	code := src.Program().Code
	for {
		recs, ok := src.Next()
		if !ok {
			return mix, nil
		}
		for i := range recs {
			mix.counts[code[recs[i].Idx].Class]++
		}
		mix.total += uint64(len(recs))
	}
}

// Fig7Cells declares the Figure 7 grid: one class-mix measurement per
// cipher.
func Fig7Cells() []Cell {
	var cells []Cell
	for _, name := range Ciphers {
		cells = append(cells, Cell{Kind: CellMix, Cipher: name, Feat: isa.FeatRot, Session: SessionBytes, Seed: DefaultSeed})
	}
	return cells
}

// Fig7 reproduces Figure 7: the dynamic operation mix of each cipher
// kernel, as fractions of all committed instructions, bucketed into the
// paper's eight categories.
func Fig7() (*Report, error) {
	r := &Report{
		ID:    "figure-7",
		Title: "Characterization of cipher kernel operations (fraction of dynamic instructions)",
		Note:  "Original kernels with rotates, 4KB sessions.",
	}
	r.Columns = []string{"Cipher", "Arith", "Logic", "Rotate", "Mult", "Subst", "Perm", "Ld/St", "Control"}
	order := []isa.Class{
		isa.ClassArith, isa.ClassLogic, isa.ClassRotate, isa.ClassMult,
		isa.ClassSubst, isa.ClassPerm, isa.ClassMem, isa.ClassControl,
	}
	for _, name := range Ciphers {
		mix, err := mixFor(name, isa.FeatRot, SessionBytes, DefaultSeed)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, c := range order {
			row = append(row, fmt.Sprintf("%.1f%%", 100*float64(mix.counts[c])/float64(mix.total)))
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}
