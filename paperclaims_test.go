// Integration tests that codify the paper's headline claims against the
// full stack (golden ciphers -> AXP64 kernels -> timing model), so a
// regression that silently changes an experiment's *shape* fails loudly.
// Most claims are ordinal, not absolute, so their sessions are kept at 1KB
// to bound test time. Footnote 1's decrypt/encrypt parity is pinned as a
// magnitude band instead, on the footnote-1 report's own 4KB sessions.
package cryptoarch_test

import (
	"testing"

	"cryptoarch"
	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
)

const claimSession = 1024

func timeOn(t *testing.T, cipher string, feat isa.Feature, cfg ooo.Config) uint64 {
	t.Helper()
	st, err := harness.TimeKernel(cipher, feat, cfg, claimSession, 777)
	if err != nil {
		t.Fatal(err)
	}
	return st.Cycles
}

// Section 4.1: 3DES is the slowest cipher, RC4 the fastest, and Rijndael
// the fastest block cipher on the baseline machine.
func TestClaimThroughputOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration claim test")
	}
	cycles := map[string]uint64{}
	for _, c := range cryptoarch.CipherNames() {
		cycles[c] = timeOn(t, c, isa.FeatRot, ooo.FourWide)
	}
	for c, v := range cycles {
		if c != "3des" && v >= cycles["3des"] {
			t.Errorf("%s (%d cycles) should beat 3des (%d)", c, v, cycles["3des"])
		}
		if c != "rc4" && v <= cycles["rc4"] {
			t.Errorf("rc4 (%d) should beat %s (%d)", cycles["rc4"], c, v)
		}
		if c != "rc4" && c != "rijndael" && v <= cycles["rijndael"] {
			t.Errorf("rijndael (%d) should be the fastest block cipher, but %s took %d",
				cycles["rijndael"], c, v)
		}
	}
}

// Section 4.2: branch prediction and memory are not bottlenecks; aliasing
// binds only RC4.
func TestClaimBottleneckStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("integration claim test")
	}
	rel := func(cipher, bottleneck string) float64 {
		cfg, err := ooo.BottleneckConfig(bottleneck)
		if err != nil {
			t.Fatal(err)
		}
		df := timeOn(t, cipher, isa.FeatRot, ooo.Dataflow)
		bn := timeOn(t, cipher, isa.FeatRot, cfg)
		return float64(df) / float64(bn)
	}
	for _, c := range []string{"blowfish", "rijndael", "rc6"} {
		if r := rel(c, "Branch"); r < 0.97 {
			t.Errorf("%s: branch prediction binds (%.2f); the paper says it must not", c, r)
		}
		if r := rel(c, "Mem"); r < 0.95 {
			t.Errorf("%s: memory binds (%.2f); the paper says it must not", c, r)
		}
	}
	if r := rel("rc4", "Alias"); r > 0.8 {
		t.Errorf("rc4: aliasing should bind hard, got %.2f", r)
	}
	if r := rel("blowfish", "Alias"); r < 0.95 {
		t.Errorf("blowfish: aliasing should not bind, got %.2f", r)
	}
}

// Section 6: every cipher speeds up with the extensions; IDEA gains most;
// RC6 gains least (its benefit came with rotates, already in the baseline).
func TestClaimExtensionSpeedups(t *testing.T) {
	if testing.Short() {
		t.Skip("integration claim test")
	}
	speedup := map[string]float64{}
	for _, c := range cryptoarch.CipherNames() {
		base := timeOn(t, c, isa.FeatRot, ooo.FourWide)
		opt := timeOn(t, c, isa.FeatOpt, ooo.FourWide)
		speedup[c] = float64(base) / float64(opt)
		if speedup[c] < 0.99 {
			t.Errorf("%s: extensions slowed the kernel (%.2fx)", c, speedup[c])
		}
	}
	for c, s := range speedup {
		if c != "idea" && s >= speedup["idea"] {
			t.Errorf("idea (%.2fx) should gain most; %s got %.2fx", speedup["idea"], c, s)
		}
		if c != "rc6" && s <= speedup["rc6"] {
			t.Errorf("rc6 (%.2fx) should gain least; %s got %.2fx", speedup["rc6"], c, s)
		}
	}
}

// Section 6 / Figure 10: MARS and RC6 suffer most without rotates.
func TestClaimRotatePenalty(t *testing.T) {
	if testing.Short() {
		t.Skip("integration claim test")
	}
	penalty := func(c string) float64 {
		rot := timeOn(t, c, isa.FeatRot, ooo.FourWide)
		norot := timeOn(t, c, isa.FeatNoRot, ooo.FourWide)
		return float64(norot) / float64(rot)
	}
	mars, rc6 := penalty("mars"), penalty("rc6")
	if mars < 1.1 || rc6 < 1.1 {
		t.Errorf("mars/rc6 must lose clearly without rotates: %.2f / %.2f", mars, rc6)
	}
	// IDEA and Rijndael barely use rotates.
	for _, c := range []string{"idea", "rijndael"} {
		if p := penalty(c); p > 1.05 {
			t.Errorf("%s should be insensitive to rotates, got %.2f", c, p)
		}
	}
}

// Section 4.2 / Figure 6: Blowfish setup (521 cipher invocations) dwarfs
// every other cipher's key schedule.
func TestClaimBlowfishSetupOutlier(t *testing.T) {
	if testing.Short() {
		t.Skip("integration claim test")
	}
	setup := func(c string) uint64 {
		st, err := harness.TimeSetup(c, isa.FeatRot, ooo.FourWide, 777)
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	bf := setup("blowfish")
	for _, c := range []string{"3des", "idea", "rc4", "rc6", "rijndael", "mars", "twofish"} {
		if s := setup(c); s*3 > bf {
			t.Errorf("blowfish setup (%d) should dwarf %s (%d)", bf, c, s)
		}
	}
}

// Footnote 1: encryption and decryption perform comparably. On the 4W
// machine they do (dec/enc measured 0.69-1.05), but the dataflow machine
// shows why the ratio dips below 1: CBC decryption has no inter-block
// recurrence, so every block cipher decrypts at 0.006-0.023x of its
// encryption cycles on DF (3DES: 249350 -> 1493). RC4, a stream cipher,
// runs the same keystream loop both ways and takes equal cycles. The
// sessions are the footnote-1 report's: opt kernels, 4KB, seed 12345.
func TestClaimDecryptParity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration claim test")
	}
	const session, seed = 4096, 12345
	cycles := func(c string, cfg ooo.Config) (enc, dec uint64) {
		e, err := harness.TimeKernel(c, isa.FeatOpt, cfg, session, seed)
		if err != nil {
			t.Fatal(err)
		}
		d, err := harness.TimeDecrypt(c, isa.FeatOpt, cfg, session, seed)
		if err != nil {
			t.Fatal(err)
		}
		return e.Cycles, d.Cycles
	}
	for _, c := range cryptoarch.CipherNames() {
		dfEnc, dfDec := cycles(c, ooo.Dataflow)
		fwEnc, fwDec := cycles(c, ooo.FourWide)
		df, fw := float64(dfDec)/float64(dfEnc), float64(fwDec)/float64(fwEnc)
		t.Logf("%-8s DF %d -> %d (%.4f)  4W %d -> %d (%.4f)", c, dfEnc, dfDec, df, fwEnc, fwDec, fw)
		if c == "rc4" {
			if dfDec != dfEnc || fwDec != fwEnc {
				t.Errorf("rc4: the two directions should take equal cycles: DF %d vs %d, 4W %d vs %d",
					dfEnc, dfDec, fwEnc, fwDec)
			}
		} else if df >= 0.03 {
			t.Errorf("%s: DF decrypt/encrypt = %.4f, want < 0.03 (CBC decryption has no inter-block recurrence)", c, df)
		}
		if fw < 0.65 || fw > 1.10 {
			t.Errorf("%s: 4W decrypt/encrypt = %.2f, want within [0.65, 1.10]", c, fw)
		}
	}
}
