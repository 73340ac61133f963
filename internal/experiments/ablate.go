package experiments

import (
	"fmt"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
)

// Ablation sweeps quantify each design choice in isolation, extending the
// paper's Section 6 discussion: starting from the 4W+ machine running the
// fully optimized kernels, one parameter is varied while everything else
// is held fixed.
type ablation struct {
	name   string
	values []int
	apply  func(c *ooo.Config, v int)
}

var ablations = []ablation{
	{"issue-width", []int{1, 2, 4, 8, 16}, func(c *ooo.Config, v int) {
		c.IssueWidth = v
	}},
	{"window", []int{16, 32, 64, 128, 256, 512}, func(c *ooo.Config, v int) {
		c.WindowSize = v
	}},
	{"sbox-caches", []int{0, 1, 2, 4}, func(c *ooo.Config, v int) {
		c.NumSboxCaches = v
		if v == 0 {
			c.SboxCachePorts = 0
		}
	}},
	{"rotators", []int{1, 2, 4, 8}, func(c *ooo.Config, v int) {
		c.NumRot = v
	}},
	{"mul-lanes", []int{1, 2, 4, 8}, func(c *ooo.Config, v int) {
		c.MulLanes = v
	}},
	{"dcache-ports", []int{1, 2, 4}, func(c *ooo.Config, v int) {
		c.DCachePorts = v
	}},
}

// AblationNames lists the available sweeps.
func AblationNames() []string {
	var out []string
	for _, a := range ablations {
		out = append(out, a.name)
	}
	return out
}

// Ablate sweeps one parameter for one cipher (or all ciphers when cipher
// is empty), reporting bytes/1000 cycles at each setting.
func Ablate(param, cipher string) (*Report, error) {
	var ab *ablation
	for i := range ablations {
		if ablations[i].name == param {
			ab = &ablations[i]
		}
	}
	if ab == nil {
		return nil, fmt.Errorf("experiments: unknown ablation %q (have %v)", param, AblationNames())
	}
	suite := kernels.Names()
	if cipher != "" {
		suite = []string{cipher}
	}
	r := &Report{
		ID:    "ablation-" + param,
		Title: fmt.Sprintf("Sweep of %s on the 4W+ machine, optimized kernels (bytes/1000 cycles)", param),
	}
	r.Columns = []string{"Cipher"}
	for _, v := range ab.values {
		r.Columns = append(r.Columns, fmt.Sprint(v))
	}
	for _, name := range suite {
		row := []string{name}
		for _, v := range ab.values {
			cfg := ooo.FourWidePlus
			ab.apply(&cfg, v)
			cfg.Name = fmt.Sprintf("4W+%s=%d", param, v)
			st, err := timed(name, isa.FeatOpt, cfg, SessionBytes, DefaultSeed)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", rate(SessionBytes, st.Cycles)))
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}
