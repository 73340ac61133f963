package experiments

import (
	"fmt"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
	"cryptoarch/internal/profview"
)

// String names a cell kind for progress lines and reports.
func (k CellKind) String() string {
	switch k {
	case CellKernel:
		return "kernel"
	case CellSetup:
		return "setup"
	case CellDecrypt:
		return "decrypt"
	case CellCount:
		return "count"
	case CellMix:
		return "mix"
	case CellValuePred:
		return "valuepred"
	case CellHandshake:
		return "handshake"
	}
	return fmt.Sprintf("cell(%d)", uint8(k))
}

// String renders a cell compactly for sweep progress lines.
func (c Cell) String() string {
	s := fmt.Sprintf("%s %s/%s", c.Kind, c.Cipher, c.Feat)
	if c.Cfg.Name != "" {
		s += "/" + c.Cfg.Name
	}
	if c.Session > 0 {
		s += fmt.Sprintf(" %dB", c.Session)
	}
	return s
}

// profileGrid is the cipher-profiling grid of `asplos2000 -profile`: the
// Figure 10 bars plus the rotate baseline — the same cells whose
// comparison the profiler exists to explain.
func profileGrid() []struct {
	feat isa.Feature
	cfg  ooo.Config
} {
	grid := []struct {
		feat isa.Feature
		cfg  ooo.Config
	}{{isa.FeatRot, ooo.FourWide}}
	return append(grid, fig10Bars...)
}

// HotSpots profiles every cell of the Figure 10 grid (through the trace
// cache, so an earlier sweep makes the emulation free) and reports the
// top-n hot PCs of each: the per-instruction view of where the slot
// budget went, ranked like `go tool pprof -top` would rank it.
func HotSpots(topN int) (*Report, error) {
	r := &Report{
		ID:    "profile-hotspots",
		Title: fmt.Sprintf("top %d hot PCs per cipher/variant/model (per-PC commit-slot profile)", topN),
		Note: "weight is commit slots charged to the PC (execute-occupancy " +
			"cycles on DF, which has no slot budget); share is the fraction " +
			"of the run's total budget.",
		Columns: []string{"cipher", "variant", "model", "rank", "pc", "instruction", "retired", "weight", "share", "top stall"},
	}
	for _, cipher := range kernels.Names() {
		for _, bar := range profileGrid() {
			pr, err := harness.ProfileKernel(cipher, bar.feat, bar.cfg, SessionBytes, DefaultSeed)
			if err != nil {
				return nil, err
			}
			src := &profview.Source{
				Root:  fmt.Sprintf("%s/%s/%s", cipher, bar.feat, bar.cfg.Name),
				Prog:  pr.Prog,
				Prof:  pr.Profile,
				Stats: pr.Stats,
			}
			rep := profview.BuildReport(src, topN)
			for rank, h := range rep.Hot {
				stall := h.TopStall
				if stall == "" {
					stall = "-"
				}
				r.Rows = append(r.Rows, []string{
					cipher, bar.feat.String(), bar.cfg.Name,
					fmt.Sprintf("%d", rank+1),
					fmt.Sprintf("%d", h.PC),
					h.Disasm,
					fmt.Sprintf("%d", h.Retired),
					fmt.Sprintf("%d", h.Weight),
					fmt.Sprintf("%.2f%%", h.Share*100),
					stall,
				})
			}
		}
	}
	return r, nil
}

// TraceCacheReport renders the harness trace-cache counters as a report,
// so `asplos2000 -json` output carries the cache traffic of the run that
// produced it.
func TraceCacheReport() *Report {
	st := harness.ReadTraceCacheStats()
	return &Report{
		ID:      "trace-cache",
		Title:   "trace record/replay cache counters for this invocation",
		Columns: []string{"counter", "value"},
		Rows: [][]string{
			{"hits", fmt.Sprintf("%d", st.Hits)},
			{"misses", fmt.Sprintf("%d", st.Misses)},
			{"records", fmt.Sprintf("%d", st.Records)},
			{"replays", fmt.Sprintf("%d", st.Replays)},
			{"resumes", fmt.Sprintf("%d", st.Resumes)},
			{"live_fallbacks", fmt.Sprintf("%d", st.LiveFallbacks)},
			{"evictions", fmt.Sprintf("%d", st.Evictions)},
			{"record_seconds", fmt.Sprintf("%.3f", st.RecordTime.Seconds())},
		},
	}
}
