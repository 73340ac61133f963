package ooo

import (
	"testing"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
)

// newSteadyEngine builds an engine over a long blowfish session and runs it
// deep enough that every reusable structure (ROB ring, calendar slots,
// ready queues, fetch ring, alias slabs for the hot pages) has reached its
// steady-state capacity.
func newSteadyEngine(t *testing.T, cfg Config, warmCycles int) (*Engine, int) {
	t.Helper()
	k, err := kernels.Get("blowfish")
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 16)
	iv := make([]byte, 8)
	pt := make([]byte, 64<<10)
	for i := range pt {
		pt[i] = byte(i*11 + 3)
	}
	m, _, err := kernels.NewRun(k, isa.FeatRot, key, iv, pt)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cfg, &MachineStream{M: m})
	e.WarmData(kernels.CtxAddr, k.CtxBytes)
	e.WarmCode(len(m.Prog.Code))
	for i := 0; i < warmCycles; i++ {
		e.step()
		e.account()
		e.cycle++
	}
	if e.streamDone {
		t.Fatal("stream exhausted during warmup; session too short for the test")
	}
	return e, len(m.Prog.Code)
}

// TestSteadyStateZeroAllocs pins the tentpole property of the hot-loop
// rewrite: once warmed up, simulating cycles performs no heap allocation.
// (AllocsPerRun truncates the average, so the rare far-future calendar
// spill or alias-slab page crossing — amortized well below one allocation
// per window — cannot mask a real per-cycle allocation.)
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, cfg := range []Config{FourWide, FourWidePlus, EightWidePlus} {
		t.Run(cfg.Name, func(t *testing.T) {
			e, _ := newSteadyEngine(t, cfg, 50_000)
			avg := testing.AllocsPerRun(40, func() {
				for i := 0; i < 250; i++ {
					e.step()
					e.account()
					e.cycle++
				}
			})
			if e.streamDone {
				t.Fatal("stream exhausted during measurement")
			}
			if avg != 0 {
				t.Fatalf("%s: steady-state loop allocates %.2f allocs per 250-cycle window, want 0", cfg.Name, avg)
			}
		})
	}
}

// TestProfilingZeroAllocs pins the profiler's steady-state cost: with
// per-PC profiling enabled, the hot loop still performs no heap
// allocation. EnableProfile allocates the dense per-PC table and the
// per-cycle commit buffer up front; each cycle only indexes and appends
// within capacity (commits per cycle never exceed IssueWidth).
func TestProfilingZeroAllocs(t *testing.T) {
	e, codeLen := newSteadyEngine(t, FourWide, 50_000)
	p := e.EnableProfile(codeLen)
	avg := testing.AllocsPerRun(40, func() {
		for i := 0; i < 250; i++ {
			e.step()
			e.account()
			e.cycle++
		}
	})
	if e.streamDone {
		t.Fatal("stream exhausted during measurement")
	}
	if avg != 0 {
		t.Fatalf("profiling-on loop allocates %.2f allocs per 250-cycle window, want 0", avg)
	}
	if p.TotalRetired() == 0 {
		t.Fatal("profiler recorded no retirements during measurement")
	}
}

// TestDFZeroAllocs extends the zero-alloc property to the infinite-window
// model. Per-entry consumer slices used to regrow on every ring-slot
// reuse; the pooled intrusive consumer list (engine.consPool) removes that
// churn, so once the pool and ring are warm the DF model, like the finite
// ones, simulates cycles with no heap allocation.
func TestDFZeroAllocs(t *testing.T) {
	e, _ := newSteadyEngine(t, Dataflow, 150_000)
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 250; i++ {
			e.step()
			e.account()
			e.cycle++
		}
	})
	if e.streamDone {
		t.Fatal("stream exhausted during measurement")
	}
	if avg != 0 {
		t.Fatalf("DF: steady-state loop allocates %.2f allocs per 250-cycle window, want 0", avg)
	}
}
