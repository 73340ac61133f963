// Command simdiff is the differential cycle accountant: it takes two
// runs and attributes the cycle delta between them exactly — per stall
// cause, and per PC when both sides run the same program. The
// attribution is conservative by construction (per-cause slot deltas sum
// exactly to the slot-budget move, inherited from the engine's
// slots == cycles × width invariant); a run pair that violates
// conservation fails the command rather than printing an approximation,
// which is what makes simdiff usable as a CI gate.
//
// Each side is either a live cell spec "cipher/variant[/model]"
// (simulated through the trace cache) or a saved-run JSON file written
// by -save-base/-save-next — so a regression can be attributed against a
// measurement taken before the regressing change existed.
//
//	go run ./cmd/simdiff blowfish/norot blowfish/opt
//	go run ./cmd/simdiff -json rijndael/rot/4W rijndael/rot/8W+
//	go run ./cmd/simdiff -save-base before.json idea/rot/4W idea/rot/4W
//	go run ./cmd/simdiff -listing mars/rot/4W mars/opt/4W   # same-program listing needs equal variants; differing programs render side by side
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cryptoarch/internal/diff"
	"cryptoarch/internal/experiments"
	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
	"cryptoarch/internal/profview"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "simdiff:", err)
	os.Exit(1)
}

// side is one resolved input: a live profiled cell (spec != nil) or a
// saved run decoded from JSON (pr == nil, no listing available).
type side struct {
	run  *diff.Run
	pr   *harness.ProfiledRun // nil for saved runs
	spec *harness.CellSpec    // nil for saved runs
}

// parseSpec parses "cipher/variant[/model]" into a cell spec.
// defaultModel fills the model when the spec has two fields.
func parseSpec(arg, defaultModel string) (harness.CellSpec, error) {
	parts := strings.Split(arg, "/")
	if len(parts) < 2 || len(parts) > 3 {
		return harness.CellSpec{}, fmt.Errorf("spec %q: want cipher/variant or cipher/variant/model", arg)
	}
	feat, err := isa.ParseFeature(parts[1])
	if err != nil {
		return harness.CellSpec{}, fmt.Errorf("spec %q: %v", arg, err)
	}
	model := defaultModel
	if len(parts) == 3 {
		model = parts[2]
	}
	cfg, err := ooo.ModelByName(model)
	if err != nil {
		return harness.CellSpec{}, fmt.Errorf("spec %q: %v", arg, err)
	}
	if parts[0] == "" {
		return harness.CellSpec{}, fmt.Errorf("spec %q: empty cipher", arg)
	}
	return harness.CellSpec{Cipher: parts[0], Feat: feat, Cfg: cfg}, nil
}

// loadSide resolves one positional argument: a *.json path loads a saved
// run; anything else is a live cell spec simulated through the trace
// cache with per-PC profiling on.
func loadSide(arg, defaultModel string, bytes int, seed int64) (*side, error) {
	if strings.HasSuffix(arg, ".json") {
		f, err := os.Open(arg)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		run, err := diff.DecodeRun(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", arg, err)
		}
		return &side{run: run}, nil
	}
	spec, err := parseSpec(arg, defaultModel)
	if err != nil {
		return nil, err
	}
	pr, err := harness.ProfileKernel(spec.Cipher, spec.Feat, spec.Cfg, bytes, seed)
	if err != nil {
		return nil, err
	}
	run, err := harness.DiffRun(spec.Label(), pr, spec)
	if err != nil {
		return nil, err
	}
	return &side{run: run, pr: pr, spec: &spec}, nil
}

// save writes a side's run as interchange JSON for later re-attribution.
func save(path string, s *side) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := diff.EncodeRun(f, s.run); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "saved", s.run.Label, "to", path)
	return nil
}

func main() {
	model := flag.String("model", "4W", "default machine model for specs without one (case-insensitive)")
	bytes := flag.Int("bytes", experiments.SessionBytes, "session length in bytes for live specs")
	seed := flag.Int64("seed", experiments.DefaultSeed, "workload seed for live specs")
	top := flag.Int("top", 8, "per-PC gainers/losers listed in the text and JSON views")
	asJSON := flag.Bool("json", false, "emit the diff report as JSON (conserved/unattributed_slots are the CI gate fields)")
	listing := flag.Bool("listing", false, "render the side-by-side annotated disassembly (live specs only)")
	saveBase := flag.String("save-base", "", "write the base run as interchange JSON to this file")
	saveNext := flag.String("save-next", "", "write the next run as interchange JSON to this file")
	flag.Parse()

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: simdiff [flags] BASE NEXT   (cipher/variant[/model] or saved-run .json; see -h)")
		os.Exit(2)
	}

	base, err := loadSide(flag.Arg(0), *model, *bytes, *seed)
	if err != nil {
		fail(err)
	}
	next, err := loadSide(flag.Arg(1), *model, *bytes, *seed)
	if err != nil {
		fail(err)
	}
	if *saveBase != "" {
		if err := save(*saveBase, base); err != nil {
			fail(err)
		}
	}
	if *saveNext != "" {
		if err := save(*saveNext, next); err != nil {
			fail(err)
		}
	}

	// diff.New validates both sides and enforces the conservation law;
	// a violation exits non-zero here, which is the CI gate's teeth.
	rd, err := diff.New(base.run, next.run)
	if err != nil {
		fail(err)
	}

	// Disassembly for the per-PC movers comes from whichever side is
	// live; an aligned diff guarantees both programs are identical.
	var disasm diff.DisasmFunc
	prog := func() *isa.Program {
		if base.pr != nil {
			return base.pr.Prog
		}
		if next.pr != nil {
			return next.pr.Prog
		}
		return nil
	}()
	if prog != nil && rd.Aligned() {
		disasm = func(pc int) string {
			if pc < 0 || pc >= len(prog.Code) {
				return ""
			}
			return isa.Disasm(&prog.Code[pc])
		}
	}

	switch {
	case *listing:
		if base.pr == nil || next.pr == nil {
			fail(fmt.Errorf("-listing needs live cell specs on both sides (saved runs carry no program)"))
		}
		profview.DiffText(os.Stdout, &profview.Source{
			Root: base.run.Label, Prog: base.pr.Prog, Prof: base.pr.Profile, Stats: base.pr.Stats,
		}, &profview.Source{
			Root: next.run.Label, Prog: next.pr.Prog, Prof: next.pr.Profile, Stats: next.pr.Stats,
		}, rd, *top)
	case *asJSON:
		b, err := json.MarshalIndent(diff.BuildReport(rd, *top, disasm), "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Println(string(b))
	default:
		diff.WriteText(os.Stdout, rd, *top, disasm)
	}
}
