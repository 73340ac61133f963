package diff_test

// The golden conservation suite of the differential accounting layer,
// mirroring TestProfileSumInvariant one level up: across all 8 ciphers,
// all ISA variants and all machine models, every pairwise diff must
// attribute its slot-budget move exactly — per-cause deltas summing to
// width × Δcycles on equal-width machines, to the general slot-budget
// difference across widths, and to all zeros on a self-diff. This is the
// CI must-pass gate for the layer: it proves the attribution is an
// accounting, not a heuristic.

import (
	"testing"

	"cryptoarch/internal/diff"
	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
)

// Small but non-trivial session, same scale as the harness profile
// invariants: every cipher retires real work on every model in well
// under a second.
const (
	consSession = 256
	consSeed    = 7
)

func profiledRun(t *testing.T, cipher string, feat isa.Feature, cfg ooo.Config) *diff.Run {
	t.Helper()
	spec := harness.CellSpec{Cipher: cipher, Feat: feat, Cfg: cfg}
	pr, err := harness.ProfileKernel(cipher, feat, cfg, consSession, consSeed)
	if err != nil {
		t.Fatalf("%s: %v", spec.Label(), err)
	}
	run, err := harness.DiffRun(spec.Label(), pr, spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Label(), err)
	}
	return run
}

// checkConserved asserts the full conservation law on one diff.
func checkConserved(t *testing.T, rd *diff.RunDiff) {
	t.Helper()
	d := rd.Delta
	label := d.BaseLabel + " vs " + d.NextLabel
	if err := rd.Check(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got, want := d.Attributed(), d.SlotDelta(); got != want {
		t.Fatalf("%s: attributed %d slots of a %d-slot move", label, got, want)
	}
	if d.Unattributed() != 0 {
		t.Fatalf("%s: conservation residue %d", label, d.Unattributed())
	}
	// On equal-width machines the slot-budget move IS width × Δcycles —
	// the paper-facing statement of the law.
	if d.BaseWidth == d.NextWidth {
		if got, want := d.Attributed(), int64(d.BaseWidth)*d.DeltaCycles(); got != want {
			t.Fatalf("%s: Σ per-cause deltas %d != width %d × Δcycles %d",
				label, got, d.BaseWidth, d.DeltaCycles())
		}
	}
}

func TestDiffConservation(t *testing.T) {
	feats := []isa.Feature{isa.FeatNoRot, isa.FeatRot, isa.FeatOpt}
	models := []ooo.Config{ooo.FourWide, ooo.FourWidePlus, ooo.EightWidePlus, ooo.Dataflow}
	for _, cipher := range kernels.Names() {
		for _, cfg := range models {
			runs := map[isa.Feature]*diff.Run{}
			for _, feat := range feats {
				runs[feat] = profiledRun(t, cipher, feat, cfg)
			}
			// Every ordered base→next pair across the ISA ladder, plus
			// the self-diff (rot vs rot): same cells, zero everywhere.
			pairs := [][2]isa.Feature{
				{isa.FeatNoRot, isa.FeatRot},
				{isa.FeatRot, isa.FeatOpt},
				{isa.FeatNoRot, isa.FeatOpt},
				{isa.FeatRot, isa.FeatRot},
			}
			for _, p := range pairs {
				rd, err := diff.New(runs[p[0]], runs[p[1]])
				if err != nil {
					t.Fatalf("%s/%s: diff %s→%s: %v", cipher, cfg.Name, p[0], p[1], err)
				}
				checkConserved(t, rd)
				if cfg.Name == "DF" {
					// No slot budget on the dataflow machine: the diff
					// must degrade to cycle/IPC-only, never fabricate.
					if rd.Delta.BaseWidth != 0 || rd.Delta.Attributed() != 0 {
						t.Fatalf("%s/DF: slot attribution on a machine with no slot budget: %+v", cipher, rd.Delta)
					}
				}
				if p[0] == p[1] {
					if rd.Delta.DeltaCycles() != 0 || rd.Delta.Attributed() != 0 {
						t.Fatalf("%s/%s: self-diff moved: Δcycles=%d attributed=%d",
							cipher, cfg.Name, rd.Delta.DeltaCycles(), rd.Delta.Attributed())
					}
					if s := rd.Delta.Speedup(); s != 1 {
						t.Fatalf("%s/%s: self-diff speedup %v, want 1", cipher, cfg.Name, s)
					}
					for c, v := range rd.Delta.Causes {
						if v != 0 {
							t.Fatalf("%s/%s: self-diff charged %d slots to %s",
								cipher, cfg.Name, v, ooo.StallCause(c))
						}
					}
				}
			}
		}
		// One cross-width pair per cipher: the general form of the law,
		// NextSlots − BaseSlots, where width × Δcycles does not apply.
		rd, err := diff.New(
			profiledRun(t, cipher, isa.FeatRot, ooo.FourWide),
			profiledRun(t, cipher, isa.FeatRot, ooo.EightWidePlus))
		if err != nil {
			t.Fatalf("%s: cross-width diff: %v", cipher, err)
		}
		checkConserved(t, rd)
		if rd.Delta.BaseWidth != 4 || rd.Delta.NextWidth != 8 {
			t.Fatalf("%s: cross-width widths %d/%d, want 4/8", cipher, rd.Delta.BaseWidth, rd.Delta.NextWidth)
		}
		// Same program on both sides, so the per-PC attribution must be
		// aligned and itself conserve (Check already enforced the sums).
		if !rd.Aligned() {
			t.Fatalf("%s: same-program cross-width diff did not align per PC", cipher)
		}
	}
}
