package harness

import (
	"fmt"

	"cryptoarch/internal/diff"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
)

// CellSpec identifies one kernel-timing cell for differential
// comparison: a cipher at an ISA feature level on a machine model.
type CellSpec struct {
	Cipher string
	Feat   isa.Feature
	Cfg    ooo.Config
}

// Label renders the spec the way reports name runs.
func (s CellSpec) Label() string {
	return fmt.Sprintf("%s/%s/%s", s.Cipher, s.Feat, s.Cfg.Name)
}

// DiffRun wraps a profiled run as a diff side, attaching the program
// digest that decides per-PC alignment.
func DiffRun(label string, pr *ProfiledRun, spec CellSpec) (*diff.Run, error) {
	digest, err := KernelDigest(spec.Cipher, spec.Feat, "encrypt")
	if err != nil {
		return nil, err
	}
	return &diff.Run{
		Label:         label,
		Stats:         pr.Stats,
		Profile:       pr.Profile,
		ProgramDigest: digest,
	}, nil
}
