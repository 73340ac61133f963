package experiments

import (
	"fmt"
	"strings"

	"cryptoarch/internal/diff"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
)

// This file implements the `asplos2000 -diff` report: a Figure-5-style
// bottleneck-shift table built from the differential cycle-accounting
// layer. Where Figure 5 ranks bottlenecks one run at a time, this report
// explains a *pair* of runs — base vs featured ISA — by attributing the
// cycle delta of every cipher×model cell to stall causes, with the
// conservation law (per-cause slot deltas sum exactly to the slot-budget
// move) enforced on every row. Like the profiler and trace-cache views,
// the report describes an invocation and never enters EXPERIMENTS.md.

// diffSide is one parsed half of a -diff spec: an ISA variant with an
// optional machine model.
type diffSide struct {
	feat isa.Feature
	cfg  *ooo.Config // nil = sweep the finite models
}

// parseDiffSide parses "variant" or "variant/model" (model matching is
// case-insensitive, like simprof).
func parseDiffSide(s string) (diffSide, error) {
	variant, model, hasModel := strings.Cut(s, "/")
	feat, err := isa.ParseFeature(variant)
	if err != nil {
		return diffSide{}, err
	}
	if !hasModel {
		return diffSide{feat: feat}, nil
	}
	cfg, err := ooo.ModelByName(model)
	if err != nil {
		return diffSide{}, err
	}
	return diffSide{feat: feat, cfg: &cfg}, nil
}

// diffPair is one base→next cell pairing of the report grid.
type diffPair struct {
	baseFeat, nextFeat isa.Feature
	baseCfg, nextCfg   ooo.Config
}

// diffGrid expands a spec pair into the cells to compare. With explicit
// models on both sides there is one pairing; otherwise each finite
// machine model is paired with itself (the Figure 5/10 reading: what did
// the ISA feature change on this machine), with an explicit single-side
// model held fixed.
func diffGrid(base, next diffSide) []diffPair {
	if base.cfg != nil && next.cfg != nil {
		return []diffPair{{base.feat, next.feat, *base.cfg, *next.cfg}}
	}
	var pairs []diffPair
	for _, cfg := range []ooo.Config{ooo.FourWide, ooo.FourWidePlus, ooo.EightWidePlus} {
		p := diffPair{baseFeat: base.feat, nextFeat: next.feat, baseCfg: cfg, nextCfg: cfg}
		if base.cfg != nil {
			p.baseCfg = *base.cfg
		}
		if next.cfg != nil {
			p.nextCfg = *next.cfg
		}
		pairs = append(pairs, p)
	}
	return pairs
}

// BottleneckShiftCells declares the grid a -diff report consumes, so the
// parallel sweep can prefetch it.
func BottleneckShiftCells(spec string) ([]Cell, error) {
	baseSpec, nextSpec, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("experiments: -diff wants base:next (e.g. rot:opt or rot/4W:opt/4W+), got %q", spec)
	}
	base, err := parseDiffSide(baseSpec)
	if err != nil {
		return nil, err
	}
	next, err := parseDiffSide(nextSpec)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, cipher := range kernels.Names() {
		for _, p := range diffGrid(base, next) {
			cells = append(cells,
				Cell{Kind: CellKernel, Cipher: cipher, Feat: p.baseFeat, Cfg: p.baseCfg, Session: SessionBytes, Seed: DefaultSeed},
				Cell{Kind: CellKernel, Cipher: cipher, Feat: p.nextFeat, Cfg: p.nextCfg, Session: SessionBytes, Seed: DefaultSeed})
		}
	}
	return cells, nil
}

// shiftGroups aggregates the per-cause slot deltas the way Figure 5
// groups its bars, so the table reads in the paper's vocabulary.
var shiftGroups = []struct {
	name   string
	causes []ooo.StallCause
}{
	{"Δcommit", []ooo.StallCause{ooo.StallCommit}},
	{"Δissue+res", []ooo.StallCause{ooo.StallIssue, ooo.StallIALU, ooo.StallMult, ooo.StallRot, ooo.StallSboxPort, ooo.StallDPort}},
	{"Δmem", []ooo.StallCause{ooo.StallICache, ooo.StallDL1Miss, ooo.StallL2Miss, ooo.StallTLBMiss}},
	{"Δbranch", []ooo.StallCause{ooo.StallBranch}},
	{"Δwindow", []ooo.StallCause{ooo.StallWindow}},
	{"Δalias", []ooo.StallCause{ooo.StallAlias}},
	{"Δother", []ooo.StallCause{ooo.StallIFetch, ooo.StallExec, ooo.StallDrain}},
}

// BottleneckShift builds the differential report for a "base:next" spec.
// Every row is conservation-checked: the grouped columns are an exact
// partition of the row's slot delta, and a violation fails the report
// rather than printing an approximation.
func BottleneckShift(spec string) (*Report, error) {
	baseSpec, nextSpec, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("experiments: -diff wants base:next (e.g. rot:opt or rot/4W:opt/4W+), got %q", spec)
	}
	base, err := parseDiffSide(baseSpec)
	if err != nil {
		return nil, err
	}
	next, err := parseDiffSide(nextSpec)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:    "diff-" + baseSpec + ":" + nextSpec,
		Title: fmt.Sprintf("bottleneck shift %s → %s (differential commit-slot accounting)", baseSpec, nextSpec),
		Note: "Δ columns are signed slot deltas as % of the base slot budget " +
			"(negative = cause released slots); they sum to Δslots exactly " +
			"(conservation law). top shift names the largest loser → gainer cause.",
		Columns: append([]string{"cipher", "pair", "speedup", "Δcycles"},
			append(groupNames(), "top shift")...),
	}
	for _, cipher := range kernels.Names() {
		for _, p := range diffGrid(base, next) {
			baseStats, err := timed(cipher, p.baseFeat, p.baseCfg, SessionBytes, DefaultSeed)
			if err != nil {
				return nil, err
			}
			nextStats, err := timed(cipher, p.nextFeat, p.nextCfg, SessionBytes, DefaultSeed)
			if err != nil {
				return nil, err
			}
			baseLabel := fmt.Sprintf("%s/%s", p.baseFeat, p.baseCfg.Name)
			nextLabel := fmt.Sprintf("%s/%s", p.nextFeat, p.nextCfg.Name)
			rd, err := diff.New(
				&diff.Run{Label: cipher + "/" + baseLabel, Stats: baseStats},
				&diff.Run{Label: cipher + "/" + nextLabel, Stats: nextStats})
			if err != nil {
				return nil, err
			}
			r.Rows = append(r.Rows, shiftRow(cipher, baseLabel+":"+nextLabel, rd))
		}
	}
	return r, nil
}

func groupNames() []string {
	names := make([]string, len(shiftGroups))
	for i, g := range shiftGroups {
		names[i] = g.name
	}
	return names
}

// shiftRow renders one cell pair. Group deltas are expressed as signed
// percentages of the base slot budget; with no base budget (a DF side)
// the raw slot deltas are shown instead.
func shiftRow(cipher, pair string, rd *diff.RunDiff) []string {
	d := rd.Delta
	row := []string{
		cipher, pair,
		fmt.Sprintf("%.2fx", d.Speedup()),
		fmt.Sprintf("%+d", d.DeltaCycles()),
	}
	baseSlots := d.BaseSlots()
	for _, g := range shiftGroups {
		var sum int64
		for _, c := range g.causes {
			sum += d.Causes[c]
		}
		if baseSlots == 0 {
			row = append(row, fmt.Sprintf("%+d", sum))
		} else {
			row = append(row, fmt.Sprintf("%+.1f%%", 100*float64(sum)/float64(baseSlots)))
		}
	}
	return append(row, d.ShiftLabel())
}
