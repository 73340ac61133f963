package kernels

import (
	"fmt"

	"cryptoarch/internal/ciphers"
	"cryptoarch/internal/ciphers/rc4"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/simmem"
)

// RC4 context layout: the 256-entry state table is held as 32-bit words so
// the aliased SBOX instruction can access it; i and j follow.
const (
	rc4S      = 0
	rc4I      = 1024
	rc4J      = 1028
	rc4Key    = 1032
	rc4CtxLen = 1048
)

func init() {
	register(&Kernel{
		Name:        "rc4",
		KeyBits:     128,
		Rounds:      1,
		Author:      "CryptSoft",
		Example:     "SSL",
		NewStream:   func(key []byte) (ciphers.Stream, error) { return rc4.New(key) },
		BlockBytes:  1,
		Build:       buildRC4,
		BuildDec:    buildRC4, // XOR keystream: decryption is encryption
		BuildSetup:  buildRC4Setup,
		InitCtx:     initRC4Ctx,
		InitKeyOnly: initRC4Key,
		CtxBytes:    rc4CtxLen,
		KeyBytes:    16,
		SetupOff:    rc4S,
		SetupLen:    1024,
	})
}

func initRC4Key(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if len(key) != 16 {
		return fmt.Errorf("rc4 kernel: key must be 16 bytes, got %d", len(key))
	}
	mem.WriteBytes(ctx+rc4Key, key)
	return nil
}

func initRC4Ctx(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if err := initRC4Key(mem, ctx, key, iv); err != nil {
		return err
	}
	c, err := rc4.New(key)
	if err != nil {
		return err
	}
	s, i, j := c.State()
	words := make([]uint32, 256)
	for n, v := range s {
		words[n] = uint32(v)
	}
	mem.WriteUint32s(ctx+rc4S, words)
	mem.Store(ctx+rc4I, 4, uint64(i))
	mem.Store(ctx+rc4J, 4, uint64(j))
	return nil
}

// buildRC4 is the keystream generator: the one kernel whose S-box is
// mutated in the inner loop, exercising the SBOX aliased bit and the
// store-address bottleneck of Figure 5.
func buildRC4(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("rc4-"+feat.String(), feat)
	sb := isa.R8
	iR, jR := isa.R9, isa.R10
	si, sj, t, ai, aj := isa.R11, isa.R12, isa.R13, isa.R14, isa.R15

	b.LDA(sb, rc4S, isa.RA3)
	b.LDL(iR, rc4I, isa.RA3)
	b.LDL(jR, rc4J, isa.RA3)
	b.BEQ(isa.RA2, "done")

	b.Label("loop")
	b.ADDLI(iR, 1, iR)
	b.ZEXTB(iR, iR)
	if feat.CryptoExt {
		b.SBOX(0, 0, sb, iR, si, true)
	} else {
		b.WithClass(isa.ClassSubst, func() {
			b.S4ADDQ(iR, sb, ai)
			b.LDL(si, 0, ai)
		})
	}
	b.ADDL(jR, si, jR)
	b.ZEXTB(jR, jR)
	if feat.CryptoExt {
		b.SBOX(0, 0, sb, jR, sj, true)
	} else {
		b.WithClass(isa.ClassSubst, func() {
			b.S4ADDQ(jR, sb, aj)
			b.LDL(sj, 0, aj)
		})
	}
	// Swap S[i] and S[j].
	if feat.CryptoExt {
		b.S4ADDQ(iR, sb, ai)
		b.S4ADDQ(jR, sb, aj)
	}
	b.STL(sj, 0, ai)
	b.STL(si, 0, aj)
	// Keystream byte S[(si+sj) & 255].
	b.ADDL(si, sj, t)
	b.ZEXTB(t, t)
	if feat.CryptoExt {
		b.SBOX(0, 0, sb, t, t, true)
	} else {
		b.WithClass(isa.ClassSubst, func() {
			b.S4ADDQ(t, sb, t)
			b.LDL(t, 0, t)
		})
	}
	b.LDB(si, 0, isa.RA0) // reuse si as the input byte (dead until next iter)
	b.XOR(t, si, t)
	b.STB(t, 0, isa.RA1)

	b.ADDQI(isa.RA0, 1, isa.RA0)
	b.ADDQI(isa.RA1, 1, isa.RA1)
	b.SUBQI(isa.RA2, 1, isa.RA2)
	b.BGT(isa.RA2, "loop")

	b.Label("done")
	b.STL(iR, rc4I, isa.RA3)
	b.STL(jR, rc4J, isa.RA3)
	b.HALT()
	return b.Build()
}

// buildRC4Setup is the key-scheduling algorithm: identity fill, then 256
// key-driven swaps.
func buildRC4Setup(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("rc4-setup-"+feat.String(), feat)
	sb := isa.R8
	iR, jR := isa.R9, isa.R10
	si, sj, t, ai, aj := isa.R11, isa.R12, isa.R13, isa.R14, isa.R15

	b.LDA(sb, rc4S, isa.RA3)
	// S[i] = i.
	b.MOV(isa.RZ, iR)
	b.MOV(sb, ai)
	b.Label("fill")
	b.STL(iR, 0, ai)
	b.ADDQI(ai, 4, ai)
	b.ADDLI(iR, 1, iR)
	b.SRLLI(iR, 8, t)
	b.BEQ(t, "fill")

	b.MOV(isa.RZ, iR)
	b.MOV(isa.RZ, jR)
	b.Label("ksa")
	b.S4ADDQ(iR, sb, ai)
	b.LDL(si, 0, ai)
	b.ANDI(iR, 15, t) // key[i % 16]
	b.ADDQ(t, isa.RA3, t)
	b.LDB(t, rc4Key, t)
	b.ADDL(jR, si, jR)
	b.ADDL(jR, t, jR)
	b.ZEXTB(jR, jR)
	b.S4ADDQ(jR, sb, aj)
	b.LDL(sj, 0, aj)
	b.STL(sj, 0, ai)
	b.STL(si, 0, aj)
	b.ADDLI(iR, 1, iR)
	b.SRLLI(iR, 8, t)
	b.BEQ(t, "ksa")
	// i and j restart at zero for the stream.
	b.STL(isa.RZ, rc4I, isa.RA3)
	b.STL(isa.RZ, rc4J, isa.RA3)
	if feat.CryptoExt {
		b.SBOXSYNC(0)
	}
	b.HALT()
	return b.Build()
}
