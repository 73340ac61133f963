package kernels

import (
	"fmt"

	"cryptoarch/internal/ciphers"
	"cryptoarch/internal/ciphers/idea"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/simmem"
)

// IDEA context layout: 52 16-bit encryption subkeys.
const (
	ideaEK     = 0   // 52 x uint16
	ideaIV     = 104 // 8 bytes
	ideaKey    = 112 // 16 bytes
	ideaCtxLen = 128
)

func init() {
	register(&Kernel{
		Name:        "idea",
		KeyBits:     128,
		Rounds:      8,
		Author:      "Ascom",
		Example:     "PGP, SSH",
		NewBlock:    func(key []byte) (ciphers.Block, error) { return idea.New(key) },
		BlockBytes:  8,
		Build:       func(f isa.Feature) *isa.Program { return buildIDEA(f, false) },
		BuildDec:    func(f isa.Feature) *isa.Program { return buildIDEA(f, true) },
		BuildSetup:  buildIDEASetup,
		InitCtx:     initIDEACtx,
		InitDecCtx:  initIDEADecCtx,
		InitKeyOnly: initIDEAKey,
		CtxBytes:    ideaCtxLen,
		KeyBytes:    16,
		SetupOff:    ideaEK,
		SetupLen:    52 * 2,
		IVOff:       ideaIV,
	})
}

func initIDEAKey(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if len(key) != 16 {
		return fmt.Errorf("idea kernel: key must be 16 bytes, got %d", len(key))
	}
	mem.WriteBytes(ctx+ideaKey, key)
	if iv != nil {
		mem.WriteBytes(ctx+ideaIV, iv)
	}
	return nil
}

func initIDEACtx(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if err := initIDEAKey(mem, ctx, key, iv); err != nil {
		return err
	}
	c, err := idea.New(key)
	if err != nil {
		return err
	}
	ek := c.EncKeys()
	for i, v := range ek {
		mem.Store(ctx+ideaEK+uint64(2*i), 2, uint64(v))
	}
	return nil
}

// initIDEADecCtx writes the inverted subkeys: IDEA decryption is the same
// network keyed with multiplicative/additive inverses.
func initIDEADecCtx(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if err := initIDEAKey(mem, ctx, key, iv); err != nil {
		return err
	}
	c, err := idea.New(key)
	if err != nil {
		return err
	}
	dk := c.DecKeys()
	for i, v := range dk {
		mem.Store(ctx+ideaEK+uint64(2*i), 2, uint64(v))
	}
	return nil
}

func buildIDEA(feat isa.Feature, dec bool) *isa.Program {
	name := "idea-"
	if dec {
		name = "idea-dec-"
	}
	b := isa.NewBuilder(name+feat.String(), feat)
	kp := isa.R8
	x := [4]isa.Reg{isa.R9, isa.R10, isa.R11, isa.R12}
	iv := [2]isa.Reg{isa.R23, isa.R24} // two 32-bit halves, BE-decoded
	one := isa.R25
	t0, t1, t, t2, t3, kw := isa.R13, isa.R14, isa.R15, isa.R22, isa.R27, isa.R0
	c0, c1 := isa.R2, isa.R3 // incoming ciphertext halves (decrypt chaining)
	m := loadSwapMasks(b, isa.R20, isa.R21)

	// mulKey emits dst = x (*) ek[idx] (16-bit IDEA multiplication).
	mulKey := func(xr isa.Reg, idx int, dst isa.Reg) {
		b.LDW(kw, int64(2*idx), kp)
		b.MulMod16(xr, kw, dst, one, t, t2, t3)
	}

	b.LDA(kp, ideaEK, isa.RA3)
	b.LDA(one, 1, isa.RZ)
	// IV as two 32-bit big-endian halves.
	b.LDL(t, ideaIV, isa.RA3)
	swap32(b, t, iv[0], t2, m)
	b.LDL(t, ideaIV+4, isa.RA3)
	swap32(b, t, iv[1], t2, m)
	b.BEQ(isa.RA2, "done")

	b.Label("loop")
	// Load four big-endian 16-bit words; encryption folds in the IV
	// halves here, decryption keeps the raw ciphertext for the chain.
	b.LDL(t, 0, isa.RA0)
	swap32(b, t, t2, t3, m)
	if dec {
		b.MOV(t2, c0)
	} else {
		b.XOR(t2, iv[0], t2)
	}
	b.SRLLI(t2, 16, x[0])
	b.ZEXTW(t2, x[1])
	b.LDL(t, 4, isa.RA0)
	swap32(b, t, t2, t3, m)
	if dec {
		b.MOV(t2, c1)
	} else {
		b.XOR(t2, iv[1], t2)
	}
	b.SRLLI(t2, 16, x[2])
	b.ZEXTW(t2, x[3])

	for r := 0; r < 8; r++ {
		p := 6 * r
		mulKey(x[0], p, x[0])
		b.LDW(kw, int64(2*(p+1)), kp)
		b.ADDL(x[1], kw, x[1])
		b.ZEXTW(x[1], x[1])
		b.LDW(kw, int64(2*(p+2)), kp)
		b.ADDL(x[2], kw, x[2])
		b.ZEXTW(x[2], x[2])
		mulKey(x[3], p+3, x[3])
		// t0 = mul(x1^x3, k5); t1 = mul(t0 + (x2^x4), k6); t0 += t1.
		b.XOR(x[0], x[2], t0)
		b.LDW(kw, int64(2*(p+4)), kp)
		b.MulMod16(t0, kw, t0, one, t, t2, t3)
		b.XOR(x[1], x[3], t1)
		b.ADDL(t1, t0, t1)
		b.ZEXTW(t1, t1)
		b.LDW(kw, int64(2*(p+5)), kp)
		b.MulMod16(t1, kw, t1, one, t, t2, t3)
		b.ADDL(t0, t1, t0)
		b.ZEXTW(t0, t0)
		// x1 ^= t1; x4 ^= t0; x2, x3 = x3^t1, x2^t0.
		b.XOR(x[0], t1, x[0])
		b.XOR(x[3], t0, x[3])
		b.XOR(x[2], t1, t) // new x2
		b.XOR(x[1], t0, x[2])
		b.MOV(t, x[1])
	}
	// Undo the final swap, then the output transform.
	b.MOV(x[1], t)
	b.MOV(x[2], x[1])
	b.MOV(t, x[2])
	mulKey(x[0], 48, x[0])
	b.LDW(kw, 2*49, kp)
	b.ADDL(x[1], kw, x[1])
	b.ZEXTW(x[1], x[1])
	b.LDW(kw, 2*50, kp)
	b.ADDL(x[2], kw, x[2])
	b.ZEXTW(x[2], x[2])
	mulKey(x[3], 51, x[3])

	// Pack the two 32-bit halves, store big-endian, chain the IV.
	if dec {
		b.SLLLI(x[0], 16, t2)
		b.OR(t2, x[1], t2)
		b.XOR(t2, iv[0], t2)
		swap32(b, t2, t0, t3, m)
		b.STL(t0, 0, isa.RA1)
		b.SLLLI(x[2], 16, t2)
		b.OR(t2, x[3], t2)
		b.XOR(t2, iv[1], t2)
		swap32(b, t2, t0, t3, m)
		b.STL(t0, 4, isa.RA1)
		b.MOV(c0, iv[0])
		b.MOV(c1, iv[1])
	} else {
		b.SLLLI(x[0], 16, t2)
		b.OR(t2, x[1], iv[0])
		b.SLLLI(x[2], 16, t2)
		b.OR(t2, x[3], iv[1])
		swap32(b, iv[0], t2, t3, m)
		b.STL(t2, 0, isa.RA1)
		swap32(b, iv[1], t2, t3, m)
		b.STL(t2, 4, isa.RA1)
	}

	b.ADDQI(isa.RA0, 8, isa.RA0)
	b.ADDQI(isa.RA1, 8, isa.RA1)
	b.SUBQI(isa.RA2, 8, isa.RA2)
	b.BGT(isa.RA2, "loop")

	b.Label("done")
	swap32(b, iv[0], t2, t3, m)
	b.STL(t2, ideaIV, isa.RA3)
	swap32(b, iv[1], t2, t3, m)
	b.STL(t2, ideaIV+4, isa.RA3)
	b.HALT()
	return b.Build()
}

// buildIDEASetup emits the IDEA schedule: 52 subkeys read off a 128-bit
// register pair that rotates left 25 bits after every eighth subkey.
func buildIDEASetup(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("idea-setup-"+feat.String(), feat)
	hi, lo := isa.R9, isa.R10
	t, t2, t3 := isa.R13, isa.R14, isa.R15
	kp := isa.R8
	m := loadSwapMasks(b, isa.R20, isa.R21)

	b.LDA(kp, ideaEK, isa.RA3)
	// Assemble the 128-bit key big-endian into hi/lo.
	load64 := func(dst isa.Reg, off int64) {
		b.LDL(t, off, isa.RA3)
		swap32(b, t, t2, t3, m)
		b.SLLI(t2, 32, dst)
		b.LDL(t, off+4, isa.RA3)
		swap32(b, t, t2, t3, m)
		b.OR(dst, t2, dst)
	}
	load64(hi, ideaKey)
	load64(lo, ideaKey+8)

	for i := 0; i < 52; i++ {
		if i != 0 && i%8 == 0 {
			// (hi,lo) <<<= 25 across 128 bits.
			b.SLLI(hi, 25, t)
			b.SRLI(lo, 39, t2)
			b.OR(t, t2, t3) // new hi
			b.SLLI(lo, 25, t)
			b.SRLI(hi, 39, t2)
			b.OR(t, t2, lo)
			b.MOV(t3, hi)
		}
		src := hi
		shift := 48 - 16*(i%4)
		if i%8 >= 4 {
			src = lo
		}
		b.SRLI(src, int64(shift), t)
		b.STW(t, int64(2*i), kp)
	}
	b.HALT()
	return b.Build()
}
