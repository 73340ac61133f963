package ooo

import (
	"testing"

	"cryptoarch/internal/metrics"
)

// TestMetricsZeroAllocs pins that attaching a telemetry registry does not
// disturb the hot loop: the engine only touches the registry at run
// completion, so the steady-state cycle loop stays allocation-free with
// metrics attached.
func TestMetricsZeroAllocs(t *testing.T) {
	e := newSteadyEngine(t, FourWide, 50_000)
	e.SetMetrics(metrics.NewRegistry())
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
		t.Fatalf("metrics-on loop allocates %.2f allocs per 250-cycle window, want 0", avg)
	}
}

// TestRunMetered pins the run-completion accounting: a full Run with a
// registry attached bumps the run counters by exactly the run's simulated
// totals, and the wall-time histogram observes one run.
func TestRunMetered(t *testing.T) {
	reg := metrics.NewRegistry()
	e := newSteadyEngine(t, FourWide, 0)
	e.SetMetrics(reg)
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ooo.runs").Value(); got != 1 {
		t.Fatalf("ooo.runs = %d, want 1", got)
	}
	if got := reg.Counter("ooo.runs.4W").Value(); got != 1 {
		t.Fatalf("ooo.runs.4W = %d, want 1", got)
	}
	if got := reg.Counter("ooo.insts").Value(); got != int64(st.Instructions) {
		t.Fatalf("ooo.insts = %d, want %d", got, st.Instructions)
	}
	if got := reg.Counter("ooo.cycles").Value(); got != int64(st.Cycles) {
		t.Fatalf("ooo.cycles = %d, want %d", got, st.Cycles)
	}
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "ooo.run_ns" {
			if h.Count != 1 {
				t.Fatalf("ooo.run_ns count = %d, want 1", h.Count)
			}
			return
		}
	}
	t.Fatal("ooo.run_ns histogram missing from snapshot")
}

// TestRunUnmetered pins the disabled state: with no registry attached
// (the default), Run is the bare simulation — no telemetry side effects
// to observe anywhere.
func TestRunUnmetered(t *testing.T) {
	e := newSteadyEngine(t, FourWide, 0)
	if e.metrics != nil {
		t.Fatal("fresh engine has a metrics registry attached")
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
