package harness_test

import (
	"reflect"
	"testing"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
	"cryptoarch/internal/profview"
)

// TestProfileSumInvariant is the profiler's accounting pin: for every
// cipher on the baseline 4W model, the per-PC slot buckets sum exactly —
// cause by cause — to the run-level StallBreakdown, the per-PC retired
// counts sum to Instructions, and the whole slot budget is
// Cycles*IssueWidth.
func TestProfileSumInvariant(t *testing.T) {
	const session = 256
	const seed = 7
	for _, cipher := range replayCiphers {
		pr, err := harness.ProfileKernel(cipher, isa.FeatOpt, ooo.FourWide, session, seed)
		if err != nil {
			t.Fatalf("%s: %v", cipher, err)
		}
		st, p := pr.Stats, pr.Profile
		if got := p.Total(); got != st.Stalls {
			t.Errorf("%s: per-PC buckets do not sum to the run breakdown\nprofile %v\nrun     %v",
				cipher, got, st.Stalls)
		}
		if got, want := p.TotalSlots(), st.Cycles*uint64(ooo.FourWide.IssueWidth); got != want {
			t.Errorf("%s: profile slots %d != cycles*width %d", cipher, got, want)
		}
		if got := p.TotalRetired(); got != st.Instructions {
			t.Errorf("%s: profile retired %d != instructions %d", cipher, got, st.Instructions)
		}
		if len(p.PCs) != len(pr.Prog.Code) {
			t.Errorf("%s: profile covers %d PCs, program has %d", cipher, len(p.PCs), len(pr.Prog.Code))
		}
		// A PC can only retire instructions that exist.
		for pc := range p.PCs {
			if p.PCs[pc].Retired > 0 && pc >= len(pr.Prog.Code) {
				t.Errorf("%s: retirement at out-of-range PC %d", cipher, pc)
			}
		}
		if hot := (&profview.Source{Prog: pr.Prog, Prof: p, Stats: st}).Hot(5); len(hot) == 0 {
			t.Errorf("%s: no hot PCs in a %d-byte session", cipher, session)
		}
	}
}

// TestProfileSumInvariantAllModels extends the sum invariant to the other
// finite-width models and checks the dataflow model charges no slots but
// still counts retirements and execute occupancy.
func TestProfileSumInvariantAllModels(t *testing.T) {
	for _, cfg := range []ooo.Config{ooo.FourWidePlus, ooo.EightWidePlus} {
		pr, err := harness.ProfileKernel("rijndael", isa.FeatOpt, cfg, 256, 7)
		if err != nil {
			t.Fatal(err)
		}
		if got := pr.Profile.Total(); got != pr.Stats.Stalls {
			t.Errorf("%s: per-PC buckets do not sum to the run breakdown", cfg.Name)
		}
		if got, want := pr.Profile.TotalSlots(), pr.Stats.Cycles*uint64(cfg.IssueWidth); got != want {
			t.Errorf("%s: profile slots %d != cycles*width %d", cfg.Name, got, want)
		}
	}
	pr, err := harness.ProfileKernel("rijndael", isa.FeatOpt, ooo.Dataflow, 256, 7)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Profile.TotalSlots() != 0 {
		t.Errorf("DF: charged %d slots on a machine with no slot budget", pr.Profile.TotalSlots())
	}
	if got := pr.Profile.TotalRetired(); got != pr.Stats.Instructions {
		t.Errorf("DF: profile retired %d != instructions %d", got, pr.Stats.Instructions)
	}
	var exec uint64
	for i := range pr.Profile.PCs {
		exec += pr.Profile.PCs[i].ExecCycles
	}
	if exec == 0 {
		t.Error("DF: no execute occupancy recorded")
	}
	if hot := (&profview.Source{Prog: pr.Prog, Prof: pr.Profile, Stats: pr.Stats}).Hot(5); len(hot) == 0 {
		t.Error("DF: Hot() found nothing despite execute occupancy")
	}
}

// TestProfileReplayBitIdentical pins replay concordance for the profiler:
// a profile captured over a replayed trace is bit-identical — stats and
// every per-PC bucket — to one captured over live emulation.
func TestProfileReplayBitIdentical(t *testing.T) {
	harness.ResetTraceCache()
	defer harness.ResetTraceCache()
	const session = 128
	const seed = 987

	for _, cipher := range []string{"blowfish", "rc4", "rijndael"} {
		w, err := harness.NewWorkload(cipher, session, seed)
		if err != nil {
			t.Fatal(err)
		}
		live, err := harness.ProfileWorkload(w, isa.FeatRot, ooo.FourWide)
		if err != nil {
			t.Fatalf("%s live: %v", cipher, err)
		}
		// Prime the cache, then profile through the replay path.
		if _, err := harness.TimeKernel(cipher, isa.FeatRot, ooo.FourWide, session, seed); err != nil {
			t.Fatal(err)
		}
		replayed, err := harness.ProfileKernel(cipher, isa.FeatRot, ooo.FourWide, session, seed)
		if err != nil {
			t.Fatalf("%s replay: %v", cipher, err)
		}
		if *live.Stats != *replayed.Stats {
			t.Errorf("%s: replayed stats differ from live", cipher)
		}
		if !reflect.DeepEqual(live.Profile.PCs, replayed.Profile.PCs) {
			for pc := range live.Profile.PCs {
				if !reflect.DeepEqual(live.Profile.PCs[pc], replayed.Profile.PCs[pc]) {
					t.Errorf("%s: profile diverges first at PC %d:\nlive   %+v\nreplay %+v",
						cipher, pc, live.Profile.PCs[pc], replayed.Profile.PCs[pc])
					break
				}
			}
		}
	}
	st := harness.ReadTraceCacheStats()
	if st.Hits == 0 {
		t.Fatalf("profiled runs never hit the trace cache: %+v", st)
	}
}

// TestTraceCacheHitMiss pins the per-request hit/miss classification the
// sweep progress line and perfbench report.
func TestTraceCacheHitMiss(t *testing.T) {
	harness.ResetTraceCache()
	defer harness.ResetTraceCache()
	if _, err := harness.TimeKernel("rc4", isa.FeatRot, ooo.FourWide, 64, 11); err != nil {
		t.Fatal(err)
	}
	st := harness.ReadTraceCacheStats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("first request should miss: %+v", st)
	}
	if _, err := harness.TimeKernel("rc4", isa.FeatRot, ooo.EightWidePlus, 64, 11); err != nil {
		t.Fatal(err)
	}
	st = harness.ReadTraceCacheStats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("second model of the same cell should hit: %+v", st)
	}
}
