package ciphers_test

import (
	"bytes"
	"math/rand"
	"testing"

	"cryptoarch/internal/ciphers"
	"cryptoarch/internal/ciphers/blowfish"
	"cryptoarch/internal/kernels"
)

func TestCBCRoundTripAllCiphers(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, name := range kernels.Names() {
		k, err := kernels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		key := make([]byte, k.KeyBytes)
		rng.Read(key)
		if k.NewStream != nil {
			s1, err := k.NewStream(key)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			s2, _ := k.NewStream(key)
			msg := make([]byte, 1024)
			rng.Read(msg)
			ct := make([]byte, len(msg))
			back := make([]byte, len(msg))
			s1.XORKeyStream(ct, msg)
			s2.XORKeyStream(back, ct)
			if !bytes.Equal(back, msg) {
				t.Errorf("%s: stream roundtrip failed", name)
			}
			continue
		}
		b, err := k.NewBlock(key)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		msg := make([]byte, 16*b.BlockSize())
		rng.Read(msg)
		iv := make([]byte, b.BlockSize())
		rng.Read(iv)
		ivEnc := append([]byte(nil), iv...)
		ivDec := append([]byte(nil), iv...)
		ct := make([]byte, len(msg))
		back := make([]byte, len(msg))
		ciphers.CBCEncrypt(b, ivEnc, ct, msg)
		ciphers.CBCDecrypt(b, ivDec, back, ct)
		if !bytes.Equal(back, msg) {
			t.Errorf("%s: CBC roundtrip failed", name)
		}
		if !bytes.Equal(ivEnc, ivDec) {
			t.Errorf("%s: IV chaining diverged", name)
		}
		if !bytes.Equal(ivEnc, ct[len(ct)-b.BlockSize():]) {
			t.Errorf("%s: IV not last ciphertext block", name)
		}
	}
}

func TestCBCChainingSplitsEqualWhole(t *testing.T) {
	// Encrypting a session in two calls must equal one call (the kernels
	// process sessions block-at-a-time with the IV carried in context).
	b, err := blowfish.New(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 64)
	for i := range msg {
		msg[i] = byte(i)
	}
	ivA := make([]byte, 8)
	ivB := make([]byte, 8)
	whole := make([]byte, 64)
	parts := make([]byte, 64)
	ciphers.CBCEncrypt(b, ivA, whole, msg)
	ciphers.CBCEncrypt(b, ivB, parts[:32], msg[:32])
	ciphers.CBCEncrypt(b, ivB, parts[32:], msg[32:])
	if !bytes.Equal(whole, parts) {
		t.Fatal("split CBC differs from whole")
	}
}
