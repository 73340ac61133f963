package harness_test

import (
	"fmt"
	"math"
	"testing"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
)

func relErr(got, want uint64) float64 {
	return math.Abs(float64(got)-float64(want)) / float64(want)
}

// TestSampledErrorBounds runs interval sampling against the exact serial
// run for every cipher, kernel variant and paper machine model (DF
// included: its unbounded front end dispatches a whole warmup prefix at
// once, so it is where a misplaced warmup-epoch boundary shows) and pins
// the accuracy contract: Instructions exact, extrapolated cycles within
// 10% of exact, the slot identity intact after extrapolation, and a sane
// reported dispersion bound.
func TestSampledErrorBounds(t *testing.T) {
	ciphers := []string{"3des", "blowfish", "idea", "mars", "rc4", "rc6", "rijndael", "twofish"}
	opt := harness.SampleOptions{Intervals: 8, IntervalInsts: 2048, WarmupInsts: 4096}
	for _, cipher := range ciphers {
		for _, feat := range []isa.Feature{isa.FeatRot, isa.FeatOpt} {
			for _, cfg := range ooo.Models {
				tag := fmt.Sprintf("%s/%s/%s", cipher, feat, cfg.Name)
				exact, err := harness.TimeKernel(cipher, feat, cfg, 4096, 7)
				if err != nil {
					t.Fatal(err)
				}
				st, rep, err := harness.TimeKernelSampled(cipher, feat, cfg, 4096, 7, opt)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Exact {
					t.Fatalf("%s: fell back to exact (session too small to sample)", tag)
				}
				if st.Instructions != exact.Instructions {
					t.Fatalf("%s: extrapolated %d insts, exact %d", tag, st.Instructions, exact.Instructions)
				}
				if rep.Coverage <= 0 || rep.Coverage >= 1 {
					t.Fatalf("%s: coverage %.3f not a genuine sample", tag, rep.Coverage)
				}
				if e := relErr(st.Cycles, exact.Cycles); e > 0.10 {
					t.Fatalf("%s: cycle error %.4f beyond 10%% bound (sampled %d, exact %d, reported bound %.4f)",
						tag, e, st.Cycles, exact.Cycles, rep.RelErrBound)
				}
				if w := cfg.IssueWidth; w > 0 {
					if got, want := st.Stalls.Slots(), st.Cycles*uint64(w); got != want {
						t.Fatalf("%s: extrapolated slots %d != cycles*width %d", tag, got, want)
					}
				}
				if rep.RelErrBound < 0 || rep.RelErrBound > 1 {
					t.Fatalf("%s: reported dispersion bound %.4f out of range", tag, rep.RelErrBound)
				}
			}
		}
	}
}

// TestSampledExactFallback pins that a session too small to sample runs
// the exact serial path, bit-identical to TimeKernel.
func TestSampledExactFallback(t *testing.T) {
	golden, err := harness.TimeKernel("blowfish", isa.FeatRot, ooo.FourWide, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, rep, err := harness.TimeKernelSampled("blowfish", isa.FeatRot, ooo.FourWide, 64, 3,
		harness.SampleOptions{Intervals: 8, IntervalInsts: 32768})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exact || rep.RelErrBound != 0 || rep.Coverage != 1 {
		t.Fatalf("expected exact fallback, got %+v", rep)
	}
	if fmt.Sprintf("%+v", *st) != fmt.Sprintf("%+v", *golden) {
		t.Fatal("exact fallback differs from TimeKernel")
	}
}
