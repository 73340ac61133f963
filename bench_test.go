// Benchmarks regenerating the paper's evaluation workloads. One benchmark
// per table/figure drives the generator cmd/asplos2000 runs for that
// report; the BenchmarkNative* group measures the golden Go ciphers on the
// host CPU, standing in for the paper's real-Alpha validation bar in
// Figure 4 (report MB/s via the custom metric).
package cryptoarch_test

import (
	"fmt"
	"testing"

	"cryptoarch"
	"cryptoarch/internal/ciphers"
	"cryptoarch/internal/experiments"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
	"cryptoarch/internal/pubkey"
)

// benchReport runs one experiment generator per benchmark iteration.
func benchReport(b *testing.B, run func() (*experiments.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchReport(b, experiments.Table1) }
func BenchmarkTable2(b *testing.B) { benchReport(b, experiments.Table2) }
func BenchmarkFig2(b *testing.B)   { benchReport(b, experiments.Fig2) }
func BenchmarkFig4(b *testing.B)   { benchReport(b, experiments.Fig4) }
func BenchmarkFig5(b *testing.B)   { benchReport(b, experiments.Fig5) }
func BenchmarkFig6(b *testing.B)   { benchReport(b, experiments.Fig6) }
func BenchmarkFig7(b *testing.B)   { benchReport(b, experiments.Fig7) }
func BenchmarkFig10(b *testing.B)  { benchReport(b, experiments.Fig10) }
func BenchmarkValuePred(b *testing.B) {
	benchReport(b, experiments.ValuePred)
}

// BenchmarkSimulator measures timing-model throughput (simulated
// instructions per second) on the baseline machine.
func BenchmarkSimulator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, err := cryptoarch.Time("blowfish", cryptoarch.ISARotate, cryptoarch.FourWide, 4096)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(st.Instructions))
	}
}

// BenchmarkKernelEmulation measures functional-emulator throughput.
func BenchmarkKernelEmulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, err := cryptoarch.InstructionCount("rijndael", cryptoarch.ISAExtended, 4096)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(n))
	}
}

// Native cipher throughput: the host-CPU analogue of Figure 4's
// real-machine bar.
func BenchmarkNative(b *testing.B) {
	const session = 64 << 10
	for _, name := range kernels.Names() {
		b.Run(name, func(b *testing.B) {
			k, err := kernels.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			key := make([]byte, k.KeyBytes)
			for i := range key {
				key[i] = byte(i + 1)
			}
			src := make([]byte, session)
			dst := make([]byte, session)
			b.SetBytes(session)
			if k.NewStream != nil {
				s, err := k.NewStream(key)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.XORKeyStream(dst, src)
				}
				return
			}
			blk, err := k.NewBlock(key)
			if err != nil {
				b.Fatal(err)
			}
			iv := make([]byte, blk.BlockSize())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ciphers.CBCEncrypt(blk, iv, dst, src)
			}
		})
	}
}

// BenchmarkNativeSetup measures key-schedule cost on the host (the
// Figure 6 quantity, natively).
func BenchmarkNativeSetup(b *testing.B) {
	for _, name := range kernels.Names() {
		b.Run(name, func(b *testing.B) {
			k, err := kernels.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			key := make([]byte, k.KeyBytes)
			for i := range key {
				key[i] = byte(i + 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if k.NewStream != nil {
					if _, err := k.NewStream(key); err != nil {
						b.Fatal(err)
					}
				} else if _, err := k.NewBlock(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMontgomery measures the public-key substrate natively.
func BenchmarkMontgomery(b *testing.B) {
	w := pubkey.NewWorkload(1)
	b.Run("montmul-1024", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pubkey.MontMul(&w.Base, &w.RMod, &w.M, w.N0)
		}
	})
	b.Run("modexp-1024", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pubkey.ModExp(&w.Base, &w.Exp, &w.M, &w.RMod, &w.R2, w.N0)
		}
	})
}

// BenchmarkModelSweep times each machine model on one representative
// kernel, exercising every engine configuration path.
func BenchmarkModelSweep(b *testing.B) {
	for _, cfg := range []ooo.Config{ooo.FourWide, ooo.FourWidePlus, ooo.EightWidePlus, ooo.Dataflow} {
		b.Run(cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cryptoarch.Time("twofish", isa.FeatOpt, cfg, 2048); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Example-style smoke check so `go test .` exercises the façade. Each
// cipher's Info is pinned: it is the paper's Table 1 configuration.
func TestPublicAPISurface(t *testing.T) {
	want := []cryptoarch.CipherInfo{
		{Name: "3des", KeyBits: 168, BlockBits: 64, Rounds: 48, KeyBytes: 24},
		{Name: "blowfish", KeyBits: 128, BlockBits: 64, Rounds: 16, KeyBytes: 16},
		{Name: "idea", KeyBits: 128, BlockBits: 64, Rounds: 8, KeyBytes: 16},
		{Name: "mars", KeyBits: 128, BlockBits: 128, Rounds: 16, KeyBytes: 16},
		{Name: "rc4", KeyBits: 128, BlockBits: 8, Rounds: 1, Stream: true, KeyBytes: 16},
		{Name: "rc6", KeyBits: 128, BlockBits: 128, Rounds: 20, KeyBytes: 16},
		{Name: "rijndael", KeyBits: 128, BlockBits: 128, Rounds: 10, KeyBytes: 16},
		{Name: "twofish", KeyBits: 128, BlockBits: 128, Rounds: 16, KeyBytes: 16},
	}
	names := cryptoarch.CipherNames()
	if len(names) != len(want) {
		t.Fatalf("expected %d ciphers, got %v", len(want), names)
	}
	for i, n := range names {
		info, err := cryptoarch.Info(n)
		if err != nil {
			t.Fatal(err)
		}
		if info != want[i] {
			t.Errorf("Info(%q) = %+v, want %+v", n, info, want[i])
		}
	}
	if _, err := cryptoarch.NewCipher("rc4", make([]byte, 16)); err == nil {
		t.Fatal("rc4 must be rejected by NewCipher")
	}
	if _, err := cryptoarch.NewStream("3des", make([]byte, 24)); err == nil {
		t.Fatal("3des must be rejected by NewStream")
	}
	st, err := cryptoarch.Time("idea", cryptoarch.ISAExtended, cryptoarch.FourWide, 512)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles == 0 || st.Instructions == 0 {
		t.Fatal("empty timing run")
	}
	fmt.Println("public API smoke:", st.Config, st.Cycles, "cycles")
}
