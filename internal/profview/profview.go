// Package profview renders the per-PC cycle profiles produced by
// internal/ooo into human- and tool-facing formats: an annotated
// disassembly with a hot-PC table, a machine-readable JSON report, folded
// stacks for flamegraph.pl, and a pprof-compatible protobuf (pprof.go).
// All four views are derived from the same Source, so they agree on
// weights and ranking by construction.
package profview

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
)

// Source bundles one profiled run for rendering: the static program the
// profile indexes, the per-PC counters, the run statistics, and a root
// name ("blowfish/opt/4W+") used as the stack root in folded and pprof
// output.
type Source struct {
	Root  string
	Prog  *isa.Program
	Prof  *ooo.Profile
	Stats *ooo.Stats
}

// Metric names the per-PC weight the source ranks by: commit slots on
// finite-width machines, execute-stage occupancy on machines with no slot
// budget (the dataflow model).
func (s *Source) Metric() string {
	if s.Prof.TotalSlots() != 0 {
		return "slots"
	}
	return "exec_cycles"
}

// weights returns the per-PC weight vector and its sum under Metric.
func (s *Source) weights() ([]uint64, uint64) {
	w := make([]uint64, len(s.Prof.PCs))
	slotted := s.Prof.TotalSlots() != 0
	var total uint64
	for pc := range s.Prof.PCs {
		if slotted {
			w[pc] = s.Prof.PCs[pc].SlotTotal()
		} else {
			w[pc] = s.Prof.PCs[pc].ExecCycles
		}
		total += w[pc]
	}
	return w, total
}

// FrameName is the per-PC frame identifier shared by the folded and pprof
// stacks and the concordance test: pc<idx>_<opcode>.
func FrameName(p *isa.Program, pc int) string {
	return fmt.Sprintf("pc%d_%s", pc, isa.P(p.Code[pc].Op).Name)
}

// Hot is the one ranking of a profile's PCs: up to n weighted PCs ranked
// the way `go tool pprof -top` will rank the emitted samples — weight
// descending, ties by frame name ascending — so the text table, the JSON
// report, and pprof output all agree on order. PCs with zero weight are
// omitted.
func (s *Source) Hot(n int) []int {
	wt, _ := s.weights()
	idx := sortedWeightedPCs(wt)
	sort.SliceStable(idx, func(a, b int) bool {
		if wt[idx[a]] != wt[idx[b]] {
			return wt[idx[a]] > wt[idx[b]]
		}
		return FrameName(s.Prog, idx[a]) < FrameName(s.Prog, idx[b])
	})
	if n > 0 && len(idx) > n {
		idx = idx[:n]
	}
	return idx
}

// Text writes the annotated-disassembly view: a run summary, the top-n
// hot PCs with their dominant stall cause, and the full program listing
// with each instruction's weight and share in the margin.
func Text(w io.Writer, s *Source, topN int) {
	wt, total := s.weights()
	st := s.Stats
	fmt.Fprintf(w, "profile: %s\n", s.Root)
	fmt.Fprintf(w, "cycles: %d  instructions: %d  ipc: %.3f\n", st.Cycles, st.Instructions, st.IPC())
	if s.Metric() == "slots" {
		fmt.Fprintf(w, "slot budget: %d  retired: %d  stalled: %d\n",
			total, st.Stalls[ooo.StallCommit], st.Stalls.Stalled())
	} else {
		fmt.Fprintf(w, "no slot budget (infinite issue width); ranking by execute occupancy: %d cycles\n", total)
	}

	hot := s.Hot(topN)
	fmt.Fprintf(w, "\ntop %d PCs by %s:\n", len(hot), s.Metric())
	fmt.Fprintf(w, "%6s  %-24s %10s %12s %7s  %s\n", "pc", "op", "retired", s.Metric(), "share", "top stall")
	for _, pc := range hot {
		pp := &s.Prof.PCs[pc]
		stallCol := "-"
		if cause, n := pp.TopStall(); n > 0 {
			stallCol = fmt.Sprintf("%s (%d)", cause, n)
		}
		fmt.Fprintf(w, "%6d  %-24s %10d %12d %6.2f%%  %s\n",
			pc, isa.Disasm(&s.Prog.Code[pc]), pp.Retired, wt[pc], share(wt[pc], total)*100, stallCol)
	}

	fmt.Fprintf(w, "\nannotated listing (%s, share):\n", s.Metric())
	isa.ListingTo(w, s.Prog, func(idx int) string {
		if wt[idx] == 0 {
			return fmt.Sprintf("%12s %6s ", ".", ".")
		}
		return fmt.Sprintf("%12d %5.1f%% ", wt[idx], share(wt[idx], total)*100)
	})
}

func share(w, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(w) / float64(total)
}

// HotPC is one ranked instruction in the JSON report.
type HotPC struct {
	PC         int               `json:"pc"`
	Op         string            `json:"op"`
	Disasm     string            `json:"disasm"`
	Block      string            `json:"block"`
	Retired    uint64            `json:"retired"`
	Weight     uint64            `json:"weight"`
	Share      float64           `json:"share"`
	ExecCycles uint64            `json:"exec_cycles"`
	TopStall   string            `json:"top_stall,omitempty"`
	Stalls     map[string]uint64 `json:"stalls,omitempty"`
}

// Report is the machine-readable profile summary embedded in experiment
// JSON output and emitted by simprof -json.
type Report struct {
	Root         string  `json:"root"`
	Config       string  `json:"config"`
	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	IPC          float64 `json:"ipc"`
	Metric       string  `json:"metric"`
	TotalWeight  uint64  `json:"total_weight"`
	Hot          []HotPC `json:"hot"`
}

// ReportSchemaVersion stamps the JSON rendering of a profile report; bump
// on field renames or meaning changes.
const ReportSchemaVersion = 1

// MarshalJSON stamps schema_version onto every JSON rendering.
func (r Report) MarshalJSON() ([]byte, error) {
	type alias Report // drops the method, avoiding recursion
	return json.Marshal(struct {
		SchemaVersion int `json:"schema_version"`
		alias
	}{ReportSchemaVersion, alias(r)})
}

// BuildReport assembles the JSON report with the top-n hot PCs.
func BuildReport(s *Source, topN int) *Report {
	wt, total := s.weights()
	starts := isa.BasicBlockStarts(s.Prog)
	r := &Report{
		Root:         s.Root,
		Config:       s.Prof.Config,
		Cycles:       s.Stats.Cycles,
		Instructions: s.Stats.Instructions,
		IPC:          s.Stats.IPC(),
		Metric:       s.Metric(),
		TotalWeight:  total,
		Hot:          []HotPC{},
	}
	for _, pc := range s.Hot(topN) {
		pp := &s.Prof.PCs[pc]
		h := HotPC{
			PC:         pc,
			Op:         isa.P(s.Prog.Code[pc].Op).Name,
			Disasm:     isa.Disasm(&s.Prog.Code[pc]),
			Block:      isa.BlockName(s.Prog, isa.BlockOf(starts, pc)),
			Retired:    pp.Retired,
			Weight:     wt[pc],
			Share:      share(wt[pc], total),
			ExecCycles: pp.ExecCycles,
		}
		if cause, n := pp.TopStall(); n > 0 {
			h.TopStall = cause.String()
		}
		if pp.SlotTotal() > 0 {
			h.Stalls = map[string]uint64{}
			for c := ooo.StallCause(0); c < ooo.NumStallCauses; c++ {
				if pp.Slots[c] > 0 {
					h.Stalls[c.String()] = pp.Slots[c]
				}
			}
		}
		r.Hot = append(r.Hot, h)
	}
	return r
}

// Folded writes one line per weighted PC in Brendan Gregg's folded-stack
// format — "root;basic-block;pc<idx>_<op> weight" — ready for
// flamegraph.pl. Lines are emitted in ascending-PC order so the output is
// deterministic.
func Folded(w io.Writer, s *Source) {
	wt, _ := s.weights()
	starts := isa.BasicBlockStarts(s.Prog)
	for pc := range wt {
		if wt[pc] == 0 {
			continue
		}
		block := isa.BlockName(s.Prog, isa.BlockOf(starts, pc))
		fmt.Fprintf(w, "%s;%s;%s %d\n", s.Root, block, FrameName(s.Prog, pc), wt[pc])
	}
}

// sortedWeightedPCs returns the PCs with nonzero weight in ascending
// order (helper for the pprof encoder, which needs stable IDs).
func sortedWeightedPCs(wt []uint64) []int {
	pcs := make([]int, 0, len(wt))
	for pc := range wt {
		if wt[pc] != 0 {
			pcs = append(pcs, pc)
		}
	}
	sort.Ints(pcs)
	return pcs
}
