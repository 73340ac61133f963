package experiments

import (
	"context"
	"fmt"
	"math"
	"testing"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
)

func budgetRelErr(got, want uint64) float64 {
	return math.Abs(float64(got)-float64(want)) / float64(want)
}

// TestCellBudgetModes pins the budget dispatch: the default is the exact
// serial path, a sampled budget keeps instruction counts exact with
// bounded extrapolation error, and each approximate execution is counted
// for the front-ends' refuse-to-write check.
func TestCellBudgetModes(t *testing.T) {
	prev := SetCellBudget(nil)
	defer SetCellBudget(prev)
	ResetCache()
	exact, err := timed("blowfish", isa.FeatRot, ooo.FourWide, 2048, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}

	SetCellBudget(&CellBudget{Mode: BudgetSampled, SampleIntervals: 8, SampleIntervalInsts: 1024, WarmupInsts: 2048})
	ResetCache()
	before := ApproxCellCount()
	sa, err := timed("blowfish", isa.FeatRot, ooo.FourWide, 2048, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Instructions != exact.Instructions {
		t.Fatalf("sampled budget: %d insts, exact %d", sa.Instructions, exact.Instructions)
	}
	if e := budgetRelErr(sa.Cycles, exact.Cycles); e > 0.15 {
		t.Fatalf("sampled budget: cycle error %.4f beyond bound", e)
	}
	if ApproxCellCount() != before+1 {
		t.Fatalf("sampled cell not counted as approximate (%d -> %d)", before, ApproxCellCount())
	}

	// Clearing the budget restores the exact path bit-identically.
	SetCellBudget(nil)
	ResetCache()
	before = ApproxCellCount()
	again, err := timed("blowfish", isa.FeatRot, ooo.FourWide, 2048, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", *again) != fmt.Sprintf("%+v", *exact) {
		t.Fatal("exact path after budget clear differs from golden")
	}
	if ApproxCellCount() != before {
		t.Fatal("exact cell counted as approximate")
	}
}

// TestSweepUnderWorkerBudget pins S1's deadlock-freedom: a parallel sweep
// whose worker count exceeds the shared budget still completes (workers
// serialize on the token pool), and its cached results match a serial
// regeneration exactly.
func TestSweepUnderWorkerBudget(t *testing.T) {
	prevB := harness.SetWorkerBudget(1)
	defer harness.SetWorkerBudget(prevB)
	prevP := SetParallelism(4)
	defer SetParallelism(prevP)

	cells := []Cell{
		{Kind: CellKernel, Cipher: "blowfish", Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: 512, Seed: DefaultSeed},
		{Kind: CellKernel, Cipher: "rc6", Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: 512, Seed: DefaultSeed},
		{Kind: CellKernel, Cipher: "idea", Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: 512, Seed: DefaultSeed},
		{Kind: CellCount, Cipher: "rc4", Feat: isa.FeatRot, Session: 512, Seed: DefaultSeed},
	}
	ResetCache()
	SweepObservedCtx(context.Background(), cells, nil)
	if lastSweepWorkers != 4 {
		t.Fatalf("sweep took %d workers, want 4", lastSweepWorkers)
	}
	parallel := make([]*ooo.Stats, 3)
	for i, c := range cells[:3] {
		st, err := timed(c.Cipher, c.Feat, c.Cfg, c.Session, c.Seed)
		if err != nil {
			t.Fatal(err)
		}
		parallel[i] = st
	}

	SetParallelism(1)
	ResetCache()
	SweepObservedCtx(context.Background(), cells, nil)
	for i, c := range cells[:3] {
		st, err := timed(c.Cipher, c.Feat, c.Cfg, c.Session, c.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", *st) != fmt.Sprintf("%+v", *parallel[i]) {
			t.Fatalf("cell %d differs between budget-serialized and serial sweeps", i)
		}
	}
}
