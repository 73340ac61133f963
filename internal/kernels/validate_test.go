package kernels

import (
	"bytes"
	"math/rand"
	"testing"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/simmem"
)

var allFeats = []isa.Feature{isa.FeatNoRot, isa.FeatRot, isa.FeatOpt}

// goldenEncrypt produces the reference ciphertext and, for a block
// cipher, the final CBC IV: the last ciphertext block.
func goldenEncrypt(t *testing.T, k *Kernel, key, iv, pt []byte) (ct, ivOut []byte) {
	t.Helper()
	ct, err := k.Encrypt(key, iv, pt)
	if err != nil {
		t.Fatal(err)
	}
	if iv != nil {
		ivOut = ct[len(ct)-len(iv):]
	}
	return ct, ivOut
}

// validateKernel runs one kernel variant in the functional emulator and
// compares its ciphertext (and chained IV) against the golden model —
// the paper's own validation methodology.
func validateKernel(t *testing.T, name string, feat isa.Feature, sessionBytes int) {
	t.Helper()
	k, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(sessionBytes) + 1000*int64(len(name))))
	key := make([]byte, k.KeyBytes)
	rng.Read(key)
	var iv []byte
	if k.BlockBytes > 1 {
		iv = make([]byte, k.BlockBytes)
		rng.Read(iv)
	}
	pt := make([]byte, sessionBytes)
	rng.Read(pt)

	wantCT, wantIV := goldenEncrypt(t, k, key, iv, pt)

	m, mem, err := NewRun(k, feat, key, iv, pt)
	if err != nil {
		t.Fatal(err)
	}
	// The arena ends where the layout does; the run below must fit in it.
	if want := int(OutAddr-simmem.Base) + sessionBytes + 4096; mem.Size() != want {
		t.Fatalf("%s/%s: arena is %d bytes, want the layout's %d", name, feat, mem.Size(), want)
	}
	n := m.Run(nil)
	if n == 0 {
		t.Fatal("kernel executed no instructions")
	}
	got := mem.ReadBytes(OutAddr, sessionBytes)
	if !bytes.Equal(got, wantCT) {
		t.Fatalf("%s/%s: ciphertext mismatch\n got %x\nwant %x", name, feat, got[:min(64, len(got))], wantCT[:min(64, len(wantCT))])
	}
	if iv != nil {
		gotIV := mem.ReadBytes(CtxAddr+k.IVOff, len(iv))
		if !bytes.Equal(gotIV, wantIV) {
			t.Fatalf("%s/%s: chained IV mismatch: got %x want %x", name, feat, gotIV, wantIV)
		}
	}
}

// validateSetup runs the in-simulator key schedule and compares the
// produced tables byte-for-byte with the golden schedule.
func validateSetup(t *testing.T, name string, feat isa.Feature) {
	t.Helper()
	k, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if k.BuildSetup == nil {
		t.Skipf("%s has no setup program yet", name)
	}
	rng := rand.New(rand.NewSource(int64(len(name)) * 77))
	key := make([]byte, k.KeyBytes)
	rng.Read(key)

	want := simmem.New(0)
	if err := k.InitCtx(want, CtxAddr, key, make([]byte, max(k.BlockBytes, 8))); err != nil {
		t.Fatal(err)
	}

	m, mem, err := NewSetupRun(k, feat, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(nil)

	got := mem.ReadBytes(CtxAddr+uint64(k.SetupOff), k.SetupLen)
	ref := want.ReadBytes(CtxAddr+uint64(k.SetupOff), k.SetupLen)
	if !bytes.Equal(got, ref) {
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s/%s setup: first mismatch at ctx+%d: got %02x want %02x",
					name, feat, k.SetupOff+i, got[i], ref[i])
			}
		}
	}
}

// validateDecKernel encrypts with the golden model and checks the AXP64
// decryption kernel recovers the plaintext — the paper's cross-validation
// of optimized kernels against the original inverse.
func validateDecKernel(t *testing.T, name string, feat isa.Feature, sessionBytes int) {
	t.Helper()
	k, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if k.BuildDec == nil {
		t.Skipf("%s has no decryption kernel yet", name)
	}
	rng := rand.New(rand.NewSource(int64(sessionBytes) + 31*int64(len(name))))
	key := make([]byte, k.KeyBytes)
	rng.Read(key)
	var iv []byte
	if k.BlockBytes > 1 {
		iv = make([]byte, k.BlockBytes)
		rng.Read(iv)
	}
	pt := make([]byte, sessionBytes)
	rng.Read(pt)
	ct, _ := goldenEncrypt(t, k, key, iv, pt)

	m, mem, err := NewDecRun(k, feat, key, iv, ct)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(nil)
	got := mem.ReadBytes(OutAddr, sessionBytes)
	if !bytes.Equal(got, pt) {
		t.Fatalf("%s/%s: decryption kernel failed\n got %x\nwant %x",
			name, feat, got[:min(48, len(got))], pt[:min(48, len(pt))])
	}
	if iv != nil {
		// After unchaining a session the IV must be the last ciphertext
		// block, ready to continue the stream.
		gotIV := mem.ReadBytes(CtxAddr+k.IVOff, len(iv))
		if !bytes.Equal(gotIV, ct[len(ct)-k.BlockBytes:]) {
			t.Fatalf("%s/%s: decrypt IV chaining wrong", name, feat)
		}
	}
}

func TestDecKernelsMatchGolden(t *testing.T) {
	for _, name := range Names() {
		k, _ := Get(name)
		for _, feat := range allFeats {
			feat := feat
			t.Run(name+"/"+feat.String(), func(t *testing.T) {
				for _, blocks := range []int{1, 8, 32} {
					validateDecKernel(t, name, feat, blocks*max(k.BlockBytes, 8))
				}
			})
		}
	}
}

func TestKernelsMatchGolden(t *testing.T) {
	for _, name := range Names() {
		k, _ := Get(name)
		for _, feat := range allFeats {
			feat := feat
			t.Run(name+"/"+feat.String(), func(t *testing.T) {
				for _, blocks := range []int{1, 8, 64} {
					validateKernel(t, name, feat, blocks*max(k.BlockBytes, 8))
				}
			})
		}
	}
}

func TestSetupsMatchGolden(t *testing.T) {
	for _, name := range Names() {
		for _, feat := range allFeats {
			feat := feat
			t.Run(name+"/"+feat.String(), func(t *testing.T) {
				validateSetup(t, name, feat)
			})
		}
	}
}
