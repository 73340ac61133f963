package ooo_test

import (
	"testing"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
)

// time runs one session for the accounting tests.
func timeStats(t *testing.T, cipher string, feat isa.Feature, cfg ooo.Config, bytes int, seed int64) *ooo.Stats {
	t.Helper()
	st, err := harness.TimeKernel(cipher, feat, cfg, bytes, seed)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAccountingInvariants checks the hard accounting identities on every
// finite-width machine model: stall slots sum to exactly Cycles*IssueWidth,
// class counts sum to Instructions, and SBox hits never exceed accesses.
func TestAccountingInvariants(t *testing.T) {
	for _, cfg := range []ooo.Config{ooo.FourWide, ooo.FourWidePlus, ooo.EightWidePlus} {
		for _, cipher := range []string{"rc4", "rijndael"} {
			st := timeStats(t, cipher, isa.FeatOpt, cfg, 1024, 7)
			if got, want := st.Stalls.Slots(), st.Cycles*uint64(cfg.IssueWidth); got != want {
				t.Errorf("%s/%s: stall slots %d != cycles*width %d", cipher, cfg.Name, got, want)
			}
			var classes uint64
			for _, c := range st.ClassCounts {
				classes += c
			}
			if classes != st.Instructions {
				t.Errorf("%s/%s: class counts sum %d != instructions %d", cipher, cfg.Name, classes, st.Instructions)
			}
			if st.SboxHits > st.SboxAccesses {
				t.Errorf("%s/%s: SboxHits %d > SboxAccesses %d", cipher, cfg.Name, st.SboxHits, st.SboxAccesses)
			}
			if st.Stalls.Stalled() != st.Stalls.Slots()-st.Stalls[ooo.StallCommit] {
				t.Errorf("%s/%s: Stalled() inconsistent", cipher, cfg.Name)
			}
		}
	}
}

// TestDataflowHasNoSlotBudget: slot attribution is defined only for
// finite issue widths; the dataflow machine records none.
func TestDataflowHasNoSlotBudget(t *testing.T) {
	st := timeStats(t, "blowfish", isa.FeatOpt, ooo.Dataflow, 512, 7)
	if st.Stalls.Slots() != 0 {
		t.Fatalf("dataflow machine charged %d slots", st.Stalls.Slots())
	}
}

// TestStatsGoldenRC4 pins the exact counters of a small RC4 session on
// the baseline machine. Observability must be zero-cost: any change to
// these numbers means the accounting or tracing layer perturbed timing.
func TestStatsGoldenRC4(t *testing.T) {
	st := timeStats(t, "rc4", isa.FeatRot, ooo.FourWide, 512, 42)
	want := map[string]uint64{
		"Cycles":       3852,
		"Instructions": 10759,
		"Branches":     513,
		"Mispredicts":  2,
		"Loads":        2050,
		"Stores":       1538,
		"DL1Misses":    192,
		"L2Misses":     2,
		"TLBMisses":    2,
	}
	got := map[string]uint64{
		"Cycles":       st.Cycles,
		"Instructions": st.Instructions,
		"Branches":     st.Branches,
		"Mispredicts":  st.Mispredicts,
		"Loads":        st.Loads,
		"Stores":       st.Stores,
		"DL1Misses":    st.DL1Misses,
		"L2Misses":     st.L2Misses,
		"TLBMisses":    st.TLBMisses,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("golden rc4 session: %s = %d, want %d", k, got[k], w)
		}
	}
	if got, want := st.Stalls.Slots(), st.Cycles*4; got != want {
		t.Errorf("golden rc4 session: slots %d != %d", got, want)
	}
}

// countingTracer records event counts per stage.
type countingTracer struct {
	counts [ooo.NumTraceStages]uint64
	last   uint64
	order  bool // cycle order violated
}

func (c *countingTracer) Event(stage ooo.TraceStage, cycle, seq uint64, pc int, inst *isa.Inst) {
	c.counts[stage]++
	if cycle < c.last {
		c.order = true
	}
	c.last = cycle
}

// TestTracerZeroImpact runs the same session with and without a tracer
// attached; the resulting Stats must be identical, and the tracer must
// see every instruction at every stage.
func TestTracerZeroImpact(t *testing.T) {
	bare := timeStats(t, "rc4", isa.FeatRot, ooo.FourWide, 512, 42)

	tr := &countingTracer{}
	w, err := harness.NewWorkload("rc4", 512, 42)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := harness.TimeWorkloadObserved(w, isa.FeatRot, ooo.FourWide, harness.TracerObserver(tr))
	if err != nil {
		t.Fatal(err)
	}
	if *bare != *traced {
		t.Fatalf("tracing changed the run:\nbare   %+v\ntraced %+v", *bare, *traced)
	}
	for s := ooo.TraceStage(0); s < ooo.NumTraceStages; s++ {
		if tr.counts[s] != bare.Instructions {
			t.Errorf("stage %s saw %d events, want %d", s, tr.counts[s], bare.Instructions)
		}
	}
	if tr.order {
		t.Error("trace events were not in nondecreasing cycle order")
	}
}

// TestStatsDerived exercises the derived-metric helpers and Delta.
func TestStatsDerived(t *testing.T) {
	st := timeStats(t, "blowfish", isa.FeatOpt, ooo.FourWidePlus, 1024, 7)
	if st.SboxAccesses == 0 {
		t.Fatal("optimized blowfish made no SBox accesses")
	}
	if st.SboxMisses() != st.SboxAccesses-st.SboxHits {
		t.Errorf("SboxMisses %d != %d-%d", st.SboxMisses(), st.SboxAccesses, st.SboxHits)
	}
	if r := st.SboxHitRate(); r < 0 || r > 1 {
		t.Errorf("SboxHitRate %f out of range", r)
	}
	if r := st.MispredictRate(); r < 0 || r > 1 {
		t.Errorf("MispredictRate %f out of range", r)
	}
	var zero ooo.Stats
	if z := zero.SboxHitRate(); z != 0 {
		t.Errorf("zero-stats SboxHitRate = %f", z)
	}
	if z := zero.MispredictRate(); z != 0 {
		t.Errorf("zero-stats MispredictRate = %f", z)
	}

	// Delta of a run against its own half-sized prefix-alike: use two
	// runs of different session lengths as interval endpoints.
	prev := timeStats(t, "blowfish", isa.FeatOpt, ooo.FourWidePlus, 512, 7)
	d := st.Delta(prev)
	if d.Cycles != st.Cycles-prev.Cycles || d.Instructions != st.Instructions-prev.Instructions {
		t.Errorf("Delta counters wrong: %+v", d)
	}
	if d.Stalls.Slots() != st.Stalls.Slots()-prev.Stalls.Slots() {
		t.Errorf("Delta stalls wrong: %d", d.Stalls.Slots())
	}
	if d.Config != st.Config {
		t.Errorf("Delta config = %q, want %q", d.Config, st.Config)
	}
	// Self-delta is all zeros.
	s := st.Delta(st)
	if s.Cycles != 0 || s.Instructions != 0 || s.Stalls.Slots() != 0 {
		t.Errorf("self-delta nonzero: %+v", s)
	}
}

// TestModelByName resolves every named model and the DF+ bottlenecks, in
// any case, to the canonical configuration.
func TestModelByName(t *testing.T) {
	for in, name := range map[string]string{
		"4W": "4W", "4W+": "4W+", "8W+": "8W+", "DF": "DF",
		"4w": "4W", "4w+": "4W+", "8w+": "8W+", "df": "DF",
		"DF+Window": "DF+Window", "df+window": "DF+Window", "DF+ALIAS": "DF+Alias",
	} {
		cfg, err := ooo.ModelByName(in)
		if err != nil || cfg.Name != name {
			t.Errorf("ModelByName(%q) = %v, %v; want %s", in, cfg.Name, err, name)
		}
	}
	for _, in := range []string{"DF+Issue", "df+issue", "Df+iSSue"} {
		cfg, err := ooo.ModelByName(in)
		if err != nil || cfg.Name != "DF+Issue" || cfg.IssueWidth != ooo.FourWide.IssueWidth {
			t.Errorf("ModelByName(%q) = %+v, %v", in, cfg, err)
		}
	}
	if _, err := ooo.ModelByName("df+nope"); err == nil {
		t.Error("ModelByName accepted an unknown bottleneck")
	}
	if _, err := ooo.ModelByName("9W"); err == nil {
		t.Error("ModelByName accepted an unknown model")
	}
}
