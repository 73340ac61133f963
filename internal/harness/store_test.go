package harness

import (
	"testing"

	"cryptoarch/internal/isa"
)

// TestKernelDigest pins the program digests the result store keys embed:
// feature levels that assemble different kernel bytes, and different
// program kinds, must yield different digests — the "kernel edit misses"
// guarantee. (norot and rot emit byte-identical blowfish programs, which
// the digest rightly reports; result keys keep them apart through their
// Feat field. The opt level rewrites the sbox accesses, so the bytes — and
// digest — change.) An unknown kind is an error, not a digest.
func TestKernelDigest(t *testing.T) {
	dRot, err1 := KernelDigest("blowfish", isa.FeatRot, "encrypt")
	dOpt, err2 := KernelDigest("blowfish", isa.FeatOpt, "encrypt")
	dSetup, err3 := KernelDigest("blowfish", isa.FeatRot, "setup")
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	if dRot == dOpt {
		t.Error("rot and opt kernels share a program digest")
	}
	if dRot == dSetup {
		t.Error("encrypt and setup kernels share a program digest")
	}
	if _, err := KernelDigest("blowfish", isa.FeatRot, "compress"); err == nil {
		t.Error("unknown kernel kind did not error")
	}
}
