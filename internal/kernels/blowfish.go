package kernels

import (
	"fmt"

	"cryptoarch/internal/ciphers"
	"cryptoarch/internal/ciphers/blowfish"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/simmem"
)

// Blowfish context layout (1KB-aligned base so the four S-boxes are
// SBOX-addressable).
const (
	bfS0     = 0
	bfS1     = 1024
	bfS2     = 2048
	bfS3     = 3072
	bfP      = 4096 // 18 words
	bfIV     = 4168 // 8 bytes, big-endian halves
	bfKey    = 4176 // raw key (16 bytes in the experiments)
	bfCtxLen = 4200
)

func init() {
	register(&Kernel{
		Name:        "blowfish",
		KeyBits:     128,
		Rounds:      16,
		Author:      "CryptSoft",
		Example:     "Norton Utilities",
		NewBlock:    func(key []byte) (ciphers.Block, error) { return blowfish.New(key) },
		BlockBytes:  8,
		Build:       func(f isa.Feature) *isa.Program { return buildBlowfish(f, false) },
		BuildDec:    func(f isa.Feature) *isa.Program { return buildBlowfish(f, true) },
		BuildSetup:  buildBlowfishSetup,
		InitCtx:     initBlowfishCtx,
		InitDecCtx:  initBlowfishDecCtx,
		InitKeyOnly: initBlowfishKey,
		CtxBytes:    bfCtxLen,
		KeyBytes:    16,
		SetupOff:    0,
		SetupLen:    bfP + 18*4, // S0..S3 then P
		IVOff:       bfIV,
	})
}

// initBlowfishDecCtx writes the decryption context: Blowfish decryption is
// the encryption network with the P-array reversed.
func initBlowfishDecCtx(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if err := initBlowfishCtx(mem, ctx, key, iv); err != nil {
		return err
	}
	bf, err := blowfish.New(key)
	if err != nil {
		return err
	}
	p, _ := bf.Tables()
	rev := make([]uint32, len(p))
	for i, v := range p {
		rev[len(p)-1-i] = v
	}
	mem.WriteUint32s(ctx+bfP, rev)
	return nil
}

func initBlowfishKey(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if len(key) != 16 {
		return fmt.Errorf("blowfish kernel: key must be 16 bytes, got %d", len(key))
	}
	mem.WriteBytes(ctx+bfKey, key)
	if iv != nil {
		mem.WriteBytes(ctx+bfIV, iv)
	}
	return nil
}

func initBlowfishCtx(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if err := initBlowfishKey(mem, ctx, key, iv); err != nil {
		return err
	}
	bf, err := blowfish.New(key)
	if err != nil {
		return err
	}
	p, s := bf.Tables()
	for t := 0; t < 4; t++ {
		mem.WriteUint32s(ctx+uint64(1024*t), s[t][:])
	}
	mem.WriteUint32s(ctx+bfP, p[:])
	return nil
}

// bfRegs is the register plan shared by the kernel and setup builders.
type bfRegs struct {
	s0, s1, s2, s3, pb     isa.Reg
	xl, xr, acc, t1, t2, t isa.Reg
	m                      swapMasks
	// aliased marks S-box lookups as store-observing: the setup program
	// encrypts with tables it is in the middle of overwriting, so its
	// SBOX instructions must set the aliased bit (the encryption kernel
	// instead relies on one SBOXSYNC at the end of setup).
	aliased bool
}

func bfStdRegs() bfRegs {
	return bfRegs{
		s0: isa.R4, s1: isa.R5, s2: isa.R6, s3: isa.R7, pb: isa.R8,
		xl: isa.R11, xr: isa.R12, acc: isa.R22,
		t1: isa.R13, t2: isa.R14, t: isa.R15,
		m: swapMasks{isa.R20, isa.R21},
	}
}

// emitBFPrologue computes table bases and loads the swap masks.
func emitBFPrologue(b *isa.Builder, r bfRegs) {
	b.LDA(r.s0, bfS0, isa.RA3)
	b.LDA(r.s1, bfS1, isa.RA3)
	b.LDA(r.s2, bfS2, isa.RA3)
	b.LDA(r.s3, bfS3, isa.RA3)
	b.LDA(r.pb, bfP, isa.RA3)
	loadSwapMasks(b, r.m.m1, r.m.m2)
}

// emitBFF emits acc = F(x) = ((S0[b3] + S1[b2]) ^ S2[b1]) + S3[b0].
func emitBFF(b *isa.Builder, r bfRegs, x isa.Reg) {
	b.SBoxLookup(0, 3, r.s0, x, r.acc, r.acc, r.aliased)
	b.SBoxLookup(1, 2, r.s1, x, r.t1, r.t1, r.aliased)
	b.ADDL(r.acc, r.t1, r.acc)
	b.SBoxLookup(2, 1, r.s2, x, r.t1, r.t1, r.aliased)
	b.XOR(r.acc, r.t1, r.acc)
	b.SBoxLookup(3, 0, r.s3, x, r.t1, r.t1, r.aliased)
	b.ADDL(r.acc, r.t1, r.acc)
}

// emitBFCore emits the 16 unrolled rounds plus the final P XORs and the
// half swap: (xl, xr) become the output halves.
func emitBFCore(b *isa.Builder, r bfRegs) {
	for i := 0; i < 16; i += 2 {
		b.LDL(r.t, int64(4*i), r.pb) // p[i]
		b.XOR(r.xl, r.t, r.xl)
		emitBFF(b, r, r.xl)
		b.XOR(r.xr, r.acc, r.xr)
		b.LDL(r.t, int64(4*(i+1)), r.pb) // p[i+1]
		b.XOR(r.xr, r.t, r.xr)
		emitBFF(b, r, r.xr)
		b.XOR(r.xl, r.acc, r.xl)
	}
	b.LDL(r.t, 4*16, r.pb)
	b.XOR(r.xl, r.t, r.xl)
	b.LDL(r.t, 4*17, r.pb)
	b.XOR(r.xr, r.t, r.xr)
	// return (r, l)
	b.MOV(r.xl, r.t)
	b.MOV(r.xr, r.xl)
	b.MOV(r.t, r.xr)
}

// buildBlowfish assembles the CBC kernel. Decryption uses the same round
// core (the context carries a reversed P-array) with the CBC chaining
// inverted: plaintext = core(ct) ^ iv, then iv = ct.
func buildBlowfish(feat isa.Feature, dec bool) *isa.Program {
	name := "blowfish-"
	if dec {
		name = "blowfish-dec-"
	}
	b := isa.NewBuilder(name+feat.String(), feat)
	r := bfStdRegs()
	ivl, ivr := isa.R9, isa.R10
	c0, c1 := isa.R2, isa.R3 // incoming ciphertext words (decrypt chaining)

	emitBFPrologue(b, r)
	b.LDL(r.t1, bfIV, isa.RA3)
	swap32(b, r.t1, ivl, r.t, r.m)
	b.LDL(r.t1, bfIV+4, isa.RA3)
	swap32(b, r.t1, ivr, r.t, r.m)
	b.BEQ(isa.RA2, "done")

	b.Label("loop")
	b.LDL(r.t1, 0, isa.RA0)
	swap32(b, r.t1, r.xl, r.t, r.m)
	b.LDL(r.t1, 4, isa.RA0)
	swap32(b, r.t1, r.xr, r.t, r.m)
	if dec {
		b.MOV(r.xl, c0)
		b.MOV(r.xr, c1)
	} else {
		b.XOR(r.xl, ivl, r.xl)
		b.XOR(r.xr, ivr, r.xr)
	}

	emitBFCore(b, r)

	if dec {
		b.XOR(r.xl, ivl, r.xl)
		b.XOR(r.xr, ivr, r.xr)
		b.MOV(c0, ivl)
		b.MOV(c1, ivr)
	} else {
		b.MOV(r.xl, ivl)
		b.MOV(r.xr, ivr)
	}
	swap32(b, r.xl, r.t1, r.t, r.m)
	b.STL(r.t1, 0, isa.RA1)
	swap32(b, r.xr, r.t1, r.t, r.m)
	b.STL(r.t1, 4, isa.RA1)

	b.ADDQI(isa.RA0, 8, isa.RA0)
	b.ADDQI(isa.RA1, 8, isa.RA1)
	b.SUBQI(isa.RA2, 8, isa.RA2)
	b.BGT(isa.RA2, "loop")

	b.Label("done")
	swap32(b, ivl, r.t1, r.t, r.m)
	b.STL(r.t1, bfIV, isa.RA3)
	swap32(b, ivr, r.t1, r.t, r.m)
	b.STL(r.t1, bfIV+4, isa.RA3)
	b.HALT()
	return b.Build()
}

// buildBlowfishSetup assembles the key schedule: copy the pi tables into
// the context, fold in the key, then run the 521 zero-block encryptions
// that give Blowfish its notoriously expensive setup (Figure 6).
func buildBlowfishSetup(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("blowfish-setup-"+feat.String(), feat)
	r := bfStdRegs()
	r.aliased = true // the 521 fill encryptions read tables being written
	piOff := b.DataWords32(blowfish.PiWords())

	ptr, dst, cnt := isa.R9, isa.R10, isa.R2
	kw := [4]isa.Reg{isa.R23, isa.R24, isa.R25, isa.R0}

	emitBFPrologue(b, r)

	// Copy pi[0:18] to P.
	b.LDA(ptr, piOff, isa.RGP)
	b.MOV(r.pb, dst)
	b.LoadImm(cnt, 18)
	b.Label("pcopy")
	b.LDL(r.t, 0, ptr)
	b.STL(r.t, 0, dst)
	b.ADDQI(ptr, 4, ptr)
	b.ADDQI(dst, 4, dst)
	b.SUBQI(cnt, 1, cnt)
	b.BGT(cnt, "pcopy")
	// Copy pi[18:1042] to the four S tables (contiguous in the context).
	b.MOV(isa.RA3, dst)
	b.LoadImm(cnt, 1024)
	b.Label("scopy")
	b.LDL(r.t, 0, ptr)
	b.STL(r.t, 0, dst)
	b.ADDQI(ptr, 4, ptr)
	b.ADDQI(dst, 4, dst)
	b.SUBQI(cnt, 1, cnt)
	b.BGT(cnt, "scopy")

	// Load the four big-endian key words and XOR them into P cyclically.
	for i := 0; i < 4; i++ {
		b.LDL(r.t1, bfKey+int64(4*i), isa.RA3)
		swap32(b, r.t1, kw[i], r.t, r.m)
	}
	for i := 0; i < 18; i++ {
		b.LDL(r.t, int64(4*i), r.pb)
		b.XOR(r.t, kw[i%4], r.t)
		b.STL(r.t, int64(4*i), r.pb)
	}

	// Replace P then S with successive encryptions of the zero block.
	b.MOV(isa.RZ, r.xl)
	b.MOV(isa.RZ, r.xr)
	b.MOV(r.pb, dst)
	b.LoadImm(cnt, 9) // 9 pairs fill P[18]
	b.Label("pfill")
	b.BSR("encrypt")
	b.STL(r.xl, 0, dst)
	b.STL(r.xr, 4, dst)
	b.ADDQI(dst, 8, dst)
	b.SUBQI(cnt, 1, cnt)
	b.BGT(cnt, "pfill")

	b.MOV(isa.RA3, dst)
	b.LoadImm(cnt, 512) // 512 pairs fill the 4096-byte S region
	b.Label("sfill")
	b.BSR("encrypt")
	b.STL(r.xl, 0, dst)
	b.STL(r.xr, 4, dst)
	b.ADDQI(dst, 8, dst)
	b.SUBQI(cnt, 1, cnt)
	b.BGT(cnt, "sfill")
	if feat.CryptoExt {
		b.SBOXSYNC(isa.SboxAll)
	}
	b.HALT()

	b.Label("encrypt")
	emitBFCore(b, r)
	b.RET()
	return b.Build()
}
