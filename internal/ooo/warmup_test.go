package ooo_test

import (
	"fmt"
	"testing"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
)

// warmupTrace records one blowfish session as a replayable trace.
func warmupTrace(t *testing.T, bytes int) (*emu.Trace, *kernels.Kernel) {
	t.Helper()
	k, err := kernels.Get("blowfish")
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 16)
	iv := make([]byte, 8)
	pt := make([]byte, bytes)
	for i := range pt {
		pt[i] = byte(i * 7)
	}
	m, _, err := kernels.NewRun(k, isa.FeatRot, key, iv, pt)
	if err != nil {
		t.Fatal(err)
	}
	tr, done := emu.Record(m, 0)
	if !done {
		t.Fatal("record incomplete")
	}
	return tr, k
}

// warmupRun replays the trace with a warmup of w instructions.
func warmupRun(t *testing.T, tr *emu.Trace, k *kernels.Kernel, cfg ooo.Config, w uint64) (*ooo.Stats, *ooo.Engine) {
	t.Helper()
	eng := ooo.NewEngine(cfg, tr.Stream())
	eng.WarmData(kernels.CtxAddr, k.CtxBytes)
	eng.WarmCode(len(tr.Prog.Code))
	eng.SetWarmup(w)
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st, eng
}

// TestWarmupEpochSplit pins the measured-epoch identities: measured
// instructions are exactly total minus warmup, measured plus discarded
// cycles reconstruct the full run, the commit-slot identity holds on the
// measured epoch alone, and dispatch-side class counts stay consistent.
func TestWarmupEpochSplit(t *testing.T) {
	tr, k := warmupTrace(t, 512)
	total := uint64(tr.Len())
	for _, cfg := range []ooo.Config{ooo.FourWide, ooo.EightWidePlus} {
		golden, _ := warmupRun(t, tr, k, cfg, 0)
		for _, w := range []uint64{1, 100, total / 2, total - 1} {
			st, eng := warmupRun(t, tr, k, cfg, w)
			di, dc := eng.WarmupDiscarded()
			if di != w {
				t.Fatalf("%s w=%d: discarded %d insts", cfg.Name, w, di)
			}
			if got, want := st.Instructions, total-w; got != want {
				t.Fatalf("%s w=%d: measured %d insts, want %d", cfg.Name, w, got, want)
			}
			// The run is deterministic, so the discarded and measured cycles
			// partition the golden run exactly.
			if st.Cycles+dc != golden.Cycles {
				t.Fatalf("%s w=%d: measured %d + discarded %d cycles != golden %d",
					cfg.Name, w, st.Cycles, dc, golden.Cycles)
			}
			if got, want := st.Stalls.Slots(), st.Cycles*uint64(cfg.IssueWidth); got != want {
				t.Fatalf("%s w=%d: measured slots %d != cycles*width %d", cfg.Name, w, got, want)
			}
			var classes uint64
			for _, c := range st.ClassCounts {
				classes += c
			}
			if classes != st.Instructions {
				t.Fatalf("%s w=%d: class counts sum %d != instructions %d", cfg.Name, w, classes, st.Instructions)
			}
		}
	}
}

// TestWarmupZeroAndOverlong pins the degenerate epochs: w == 0 is
// bit-identical to no warmup at all, and a warmup longer than the stream
// never closes, reporting the full run and zero discard.
func TestWarmupZeroAndOverlong(t *testing.T) {
	tr, k := warmupTrace(t, 256)
	total := uint64(tr.Len())
	golden, _ := warmupRun(t, tr, k, ooo.FourWide, 0)

	zero, eng := warmupRun(t, tr, k, ooo.FourWide, 0)
	if fmt.Sprintf("%+v", *zero) != fmt.Sprintf("%+v", *golden) {
		t.Fatal("w=0 run differs from golden")
	}
	if di, dc := eng.WarmupDiscarded(); di != 0 || dc != 0 {
		t.Fatalf("w=0 discarded %d/%d", di, dc)
	}

	over, eng := warmupRun(t, tr, k, ooo.FourWide, total+100)
	if fmt.Sprintf("%+v", *over) != fmt.Sprintf("%+v", *golden) {
		t.Fatal("overlong warmup did not fall back to the full run")
	}
	if di, dc := eng.WarmupDiscarded(); di != 0 || dc != 0 {
		t.Fatalf("overlong warmup discarded %d/%d", di, dc)
	}
}

// TestWarmupDataflow pins the epoch on the infinite-width model, whose
// stall breakdown is all zeros before and after the delta.
func TestWarmupDataflow(t *testing.T) {
	tr, k := warmupTrace(t, 256)
	total := uint64(tr.Len())
	w := total / 3
	st, _ := warmupRun(t, tr, k, ooo.Dataflow, w)
	if st.Instructions != total-w {
		t.Fatalf("DF measured %d insts, want %d", st.Instructions, total-w)
	}
	if st.Stalls.Slots() != 0 {
		t.Fatalf("DF charged %d slots", st.Stalls.Slots())
	}
	if st.Cycles == 0 {
		t.Fatal("DF measured zero cycles")
	}
}

// TestWarmupProfile pins that the profile delta stays in lockstep with the
// stats delta: the measured profile's slot buckets sum to the measured
// run-level breakdown exactly, on both a finite and checked config.
func TestWarmupProfile(t *testing.T) {
	tr, k := warmupTrace(t, 512)
	total := uint64(tr.Len())
	cfg := ooo.FourWide
	cfg.Checked = true
	eng := ooo.NewEngine(cfg, tr.Stream())
	eng.WarmData(kernels.CtxAddr, k.CtxBytes)
	eng.WarmCode(len(tr.Prog.Code))
	prof := eng.EnableProfile()
	eng.SetWarmup(total / 2)
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := prof.Total(), st.Stalls; got != want {
		t.Fatalf("measured profile total %v != measured stalls %v", got, want)
	}
	if got, want := prof.TotalSlots(), st.Stalls.Slots(); got != want {
		t.Fatalf("measured profile slots %d != stats slots %d", got, want)
	}
}
