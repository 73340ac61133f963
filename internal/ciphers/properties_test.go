package ciphers_test

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"cryptoarch/internal/kernels"
)

// TestAvalancheAllCiphers checks the paper's strength criterion (Section
// 2): flipping one plaintext bit perturbs each ciphertext bit with
// probability near 50%, for every block cipher in the suite.
func TestAvalancheAllCiphers(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for _, name := range kernels.Names() {
		k, _ := kernels.Get(name)
		if k.NewStream != nil {
			continue // a keystream XOR propagates nothing by design
		}
		key := make([]byte, k.KeyBytes)
		rng.Read(key)
		b, err := k.NewBlock(key)
		if err != nil {
			t.Fatal(err)
		}
		n := b.BlockSize()
		total, trials := 0, 0
		for rep := 0; rep < 8; rep++ {
			pt := make([]byte, n)
			rng.Read(pt)
			base := make([]byte, n)
			b.Encrypt(base, pt)
			for bit := 0; bit < 8*n; bit += 5 {
				mod := append([]byte(nil), pt...)
				mod[bit/8] ^= 1 << uint(bit%8)
				ct := make([]byte, n)
				b.Encrypt(ct, mod)
				for i := range ct {
					total += bits.OnesCount8(ct[i] ^ base[i])
				}
				trials++
			}
		}
		avg := float64(total) / float64(trials) / float64(8*n)
		if avg < 0.45 || avg > 0.55 {
			t.Errorf("%s: avalanche %.3f, want ~0.5", name, avg)
		}
	}
}

// TestKeyAvalancheAllCiphers checks the companion criterion: flipping one
// key bit perturbs the ciphertext as strongly as a plaintext change.
func TestKeyAvalancheAllCiphers(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for _, name := range kernels.Names() {
		k, _ := kernels.Get(name)
		if k.NewStream != nil {
			continue
		}
		key := make([]byte, k.KeyBytes)
		rng.Read(key)
		b, _ := k.NewBlock(key)
		n := b.BlockSize()
		pt := make([]byte, n)
		rng.Read(pt)
		base := make([]byte, n)
		b.Encrypt(base, pt)
		total, trials := 0, 0
		for bit := 0; bit < 8*len(key); bit += 11 {
			if name == "3des" && bit%8 == 0 {
				continue // DES parity bits are ignored by PC1
			}
			mod := append([]byte(nil), key...)
			mod[bit/8] ^= 1 << uint(bit%8)
			b2, err := k.NewBlock(mod)
			if err != nil {
				t.Fatal(err)
			}
			ct := make([]byte, n)
			b2.Encrypt(ct, pt)
			for i := range ct {
				total += bits.OnesCount8(ct[i] ^ base[i])
			}
			trials++
		}
		avg := float64(total) / float64(trials) / float64(8*n)
		if avg < 0.44 || avg > 0.56 {
			t.Errorf("%s: key avalanche %.3f, want ~0.5", name, avg)
		}
	}
}

// TestQuickRoundTripAllCiphers is a quick.Check property: for random keys
// and plaintexts, Decrypt(Encrypt(x)) == x for every block cipher.
func TestQuickRoundTripAllCiphers(t *testing.T) {
	for _, name := range kernels.Names() {
		k, _ := kernels.Get(name)
		if k.NewStream != nil {
			continue
		}
		name := name
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			key := make([]byte, k.KeyBytes)
			rng.Read(key)
			b, err := k.NewBlock(key)
			if err != nil {
				return false
			}
			pt := make([]byte, b.BlockSize())
			rng.Read(pt)
			ct := make([]byte, len(pt))
			back := make([]byte, len(pt))
			b.Encrypt(ct, pt)
			b.Decrypt(back, ct)
			for i := range pt {
				if pt[i] != back[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
