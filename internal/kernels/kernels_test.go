package kernels

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/simmem"
)

// TestRegistryComplete pins the cipher table: the paper's eight ciphers
// in its presentation order, each with a complete kernel record, a
// Table 1 row and exactly one golden model whose block size is the
// kernel's.
func TestRegistryComplete(t *testing.T) {
	want := []string{"3des", "blowfish", "idea", "mars", "rc4", "rc6", "rijndael", "twofish"}
	if names := Names(); !slices.Equal(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for _, n := range want {
		k, err := Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if k.Build == nil || k.InitCtx == nil || k.InitKeyOnly == nil || k.BuildSetup == nil {
			t.Errorf("%s: incomplete kernel registration", n)
		}
		if k.CtxBytes <= 0 || k.KeyBytes <= 0 || k.SetupLen <= 0 {
			t.Errorf("%s: missing sizes", n)
		}
		if k.Rounds <= 0 || k.Author == "" || k.Example == "" {
			t.Errorf("%s: incomplete Table 1 row %+v", n, k)
		}
		// 3DES's three 56-bit keys travel as 24 raw bytes.
		wantBits := 8 * k.KeyBytes
		if n == "3des" {
			wantBits = 168
		}
		if k.KeyBits != wantBits {
			t.Errorf("%s: KeyBits %d, want %d", n, k.KeyBits, wantBits)
		}
		if (k.NewBlock == nil) == (k.NewStream == nil) {
			t.Errorf("%s: want exactly one of NewBlock and NewStream", n)
			continue
		}
		key := make([]byte, k.KeyBytes)
		if k.NewStream != nil {
			if k.BlockBytes != 1 {
				t.Errorf("%s: stream cipher with %d-byte blocks", n, k.BlockBytes)
			}
			if _, err := k.NewStream(key); err != nil {
				t.Errorf("%s: %v", n, err)
			}
			continue
		}
		b, err := k.NewBlock(key)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if b.BlockSize() != k.BlockBytes {
			t.Errorf("%s: golden block size %d bytes, kernel works in %d", n, b.BlockSize(), k.BlockBytes)
		}
	}
}

// TestKernelSessionChaining verifies that running a kernel twice over two
// half-sessions produces the same ciphertext as one whole session — the
// context carries the CBC state (or RC4 state) across calls, exactly how a
// server encrypts a connection.
func TestKernelSessionChaining(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, name := range Names() {
		k, _ := Get(name)
		unit := max(k.BlockBytes, 8)
		total := 16 * unit
		key := make([]byte, k.KeyBytes)
		rng.Read(key)
		var iv []byte
		if k.BlockBytes > 1 {
			iv = make([]byte, k.BlockBytes)
			rng.Read(iv)
		}
		pt := make([]byte, total)
		rng.Read(pt)

		m, mem, err := NewRun(k, isa.FeatOpt, key, iv, pt)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(nil)
		whole := mem.ReadBytes(OutAddr, total)

		// Two halves against a fresh context, reusing the same memory
		// arena and program between calls.
		mem2 := simmem.New(0)
		if err := k.InitCtx(mem2, CtxAddr, key, iv); err != nil {
			t.Fatal(err)
		}
		mem2.WriteBytes(InAddr, pt)
		prog := k.Build(isa.FeatOpt)
		for half := 0; half < 2; half++ {
			m2 := emu.New(prog, mem2, RodataAddr)
			off := uint64(half * total / 2)
			m2.SetArgs(InAddr+off, OutAddr+off, uint64(total/2), CtxAddr)
			m2.Run(nil)
		}
		split := mem2.ReadBytes(OutAddr, total)
		if !bytes.Equal(whole, split) {
			t.Errorf("%s: split session diverges from whole session", name)
		}
	}
}

// TestOperationMixShape checks the Figure 7 class structure: IDEA and RC6
// are multiply-heavy, the substitution ciphers S-box heavy, and only 3DES
// performs general permutations.
func TestOperationMixShape(t *testing.T) {
	counts := func(name string) (frac map[isa.Class]float64) {
		k, _ := Get(name)
		key := make([]byte, k.KeyBytes)
		iv := make([]byte, k.BlockBytes)
		if k.BlockBytes == 1 {
			iv = nil
		}
		pt := make([]byte, 64*max(k.BlockBytes, 8))
		m, _, err := NewRun(k, isa.FeatRot, key, iv, pt)
		if err != nil {
			t.Fatal(err)
		}
		var c [isa.NumClasses]uint64
		var total uint64
		m.Run(func(r *emu.Rec) { c[r.Inst.Class]++; total++ })
		frac = map[isa.Class]float64{}
		for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
			frac[cl] = float64(c[cl]) / float64(total)
		}
		return frac
	}
	for _, name := range []string{"idea", "rc6"} {
		if f := counts(name); f[isa.ClassMult] < 0.05 {
			t.Errorf("%s: expected multiply-heavy kernel, got %.3f", name, f[isa.ClassMult])
		}
	}
	for _, name := range []string{"blowfish", "3des", "rijndael", "twofish"} {
		if f := counts(name); f[isa.ClassSubst] < 0.25 {
			t.Errorf("%s: expected substitution-heavy kernel, got %.3f", name, f[isa.ClassSubst])
		}
	}
	for _, name := range Names() {
		f := counts(name)
		if name == "3des" {
			if f[isa.ClassPerm] == 0 {
				t.Error("3des: expected permutation work")
			}
		} else if f[isa.ClassPerm] > 0 {
			t.Errorf("%s: unexpected permutation class work", name)
		}
	}
}

// TestProgramsAreReasonablySized guards against macro blowups: kernels
// must stay within an I-cache-friendly footprint.
func TestProgramsAreReasonablySized(t *testing.T) {
	for _, name := range Names() {
		k, _ := Get(name)
		for _, feat := range allFeats {
			p := k.Build(feat)
			if len(p.Code) == 0 || len(p.Code) > 8192 {
				t.Errorf("%s/%s: %d instructions", name, feat, len(p.Code))
			}
			s := k.BuildSetup(feat)
			if len(s.Code) == 0 || len(s.Code) > 8192 {
				t.Errorf("%s-setup/%s: %d instructions", name, feat, len(s.Code))
			}
		}
	}
}

// TestRC4StateAdvances checks the stream kernel's persistent i/j state.
func TestRC4StateAdvances(t *testing.T) {
	k, _ := Get("rc4")
	key := make([]byte, 16)
	pt := make([]byte, 100)
	m, mem, err := NewRun(k, isa.FeatOpt, key, nil, pt)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(nil)
	i := mem.Load(CtxAddr+rc4I, 4)
	if i != 100 {
		t.Fatalf("i after 100 bytes = %d, want 100", i)
	}
}
