package harness

import (
	"strings"
	"testing"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
)

// TestSelfCheckAllCiphers is the differential tentpole: every cipher at
// every feature level, encrypt and decrypt, agrees byte-for-byte with the
// golden models on randomized sessions.
func TestSelfCheckAllCiphers(t *testing.T) {
	res, err := SelfCheck(SelfCheckOptions{Seed: 7, MaxBytes: 256, Decrypt: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	// 8 ciphers x 3 levels, encrypt everywhere and decrypt wherever a
	// kernel exists; at minimum the encrypt runs must all have happened.
	if min := len(kernels.Names()) * 3; res.Runs < min {
		t.Fatalf("self-check executed %d runs, want at least %d", res.Runs, min)
	}
}

// TestSelfCheckReportsDivergence pins the failure reporting: a session
// whose golden ciphertext has been tampered with must be reported with
// cipher, mode, seed and the first diverging byte.
func TestSelfCheckReportsDivergence(t *testing.T) {
	k, err := kernels.Get("blowfish")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload("blowfish", 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := k.Encrypt(w.Key, w.IV, w.Plain)
	if err != nil {
		t.Fatal(err)
	}
	golden[5] ^= 0x10
	fail := runEncrypt(k, isa.FeatRot, w, golden)
	if fail == nil {
		t.Fatal("tampered golden ciphertext not reported")
	}
	if fail.Cipher != "blowfish" || fail.Mode != "encrypt" || fail.Seed != 3 {
		t.Fatalf("failure misattributed: %+v", fail)
	}
	if msg := fail.Error(); !strings.Contains(msg, "byte 5") {
		t.Fatalf("failure %q does not locate the diverging byte", msg)
	}

	golden[5] ^= 0x10
	if fail := runDecrypt(k, isa.FeatRot, w, golden); fail != nil {
		t.Fatalf("clean decrypt round-trip reported: %v", fail)
	}
}

// TestSelfCheckUnknownCipher pins the harness-level error path.
func TestSelfCheckUnknownCipher(t *testing.T) {
	_, err := SelfCheck(SelfCheckOptions{Ciphers: []string{"blowfsh"}})
	if err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("err = %v, want a did-you-mean suggestion", err)
	}
}

// TestSelfCheckResultErr pins the aggregate error formatting.
func TestSelfCheckResultErr(t *testing.T) {
	r := &SelfCheckResult{Runs: 4}
	if r.Err() != nil {
		t.Fatal("clean result reports an error")
	}
	r.Failures = append(r.Failures, &SelfCheckFailure{
		Cipher: "idea", Feat: isa.FeatOpt, Mode: "decrypt", Session: 32, Seed: 9,
		Detail: "first divergence at byte 0: 0x01, want 0x02",
	})
	err := r.Err()
	if err == nil {
		t.Fatal("failing result reports no error")
	}
	for _, want := range []string{"1 of 4", "idea", "decrypt", "seed 9"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("aggregate error %q missing %q", err, want)
		}
	}
}
