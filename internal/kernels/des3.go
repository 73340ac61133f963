package kernels

import (
	"fmt"

	"cryptoarch/internal/ciphers"
	"cryptoarch/internal/ciphers/des"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/simmem"
)

// 3DES context layout: eight replicated SP tables, then 48 fast-domain
// round-key pairs covering the three EDE stages (stage 2 pre-reversed).
const (
	desSP     = 0    // 8 x 1KB
	desKS     = 8192 // 48 x (kA, kB) words
	desIV     = 8576
	desKey    = 8584 // 24 bytes
	desCtxLen = 8608
)

func init() {
	register(&Kernel{
		Name:        "3des",
		KeyBits:     168,
		Rounds:      48,
		Author:      "CryptSoft",
		Example:     "SSL, SSH",
		NewBlock:    func(key []byte) (ciphers.Block, error) { return des.New3(key) },
		BlockBytes:  8,
		Build:       func(f isa.Feature) *isa.Program { return build3DES(f, false) },
		BuildDec:    func(f isa.Feature) *isa.Program { return build3DES(f, true) },
		BuildSetup:  build3DESSetup,
		InitCtx:     init3DESCtx,
		InitDecCtx:  init3DESDecCtx,
		InitKeyOnly: init3DESKey,
		CtxBytes:    desCtxLen,
		KeyBytes:    24,
		SetupOff:    desKS,
		SetupLen:    48 * 8,
		IVOff:       desIV,
	})
}

func init3DESKey(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if len(key) != 24 {
		return fmt.Errorf("3des kernel: key must be 24 bytes, got %d", len(key))
	}
	sp := des.SPKernelTables()
	for k := 0; k < 8; k++ {
		mem.WriteUint32s(ctx+uint64(1024*k), sp[k][:])
	}
	mem.WriteBytes(ctx+desKey, key)
	if iv != nil {
		mem.WriteBytes(ctx+desIV, iv)
	}
	return nil
}

func init3DESCtx(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if err := init3DESKey(mem, ctx, key, iv); err != nil {
		return err
	}
	t, err := des.New3(key)
	if err != nil {
		return err
	}
	k1, k2, k3 := t.Stages()
	writeStage := func(off uint64, ks [16][2]uint32) {
		for i, pair := range ks {
			mem.Store(ctx+off+uint64(8*i), 4, uint64(pair[0]))
			mem.Store(ctx+off+uint64(8*i+4), 4, uint64(pair[1]))
		}
	}
	writeStage(desKS, k1.FastKeys())
	writeStage(desKS+128, des.FastDecryptKeys(k2))
	writeStage(desKS+256, k3.FastKeys())
	return nil
}

// permMaskValues lists the five swap-network masks in the order they are
// preloaded into registers.
var permMaskValues = []uint32{0x0f0f0f0f, 0x0000ffff, 0x33333333, 0x00ff00ff, 0x55555555}

// emitPermNet emits one of the shared IP/FP swap networks on (l, r),
// selecting preloaded mask registers by mask value (IP and FP use them in
// opposite orders); classified as permutation work for Figure 7.
func emitPermNet(b *isa.Builder, steps []des.PermOpStep, l, r, t isa.Reg, masks [5]isa.Reg) {
	regOf := func(m uint32) isa.Reg {
		for i, v := range permMaskValues {
			if v == m {
				return masks[i]
			}
		}
		panic("des3: unknown permutation mask")
	}
	b.WithClass(isa.ClassPerm, func() {
		for _, s := range steps {
			a1, b1 := l, r
			if s.RFirst {
				a1, b1 = r, l
			}
			b.SRLLI(a1, int64(s.Shift), t)
			b.XOR(t, b1, t)
			b.AND(t, regOf(s.Mask), t)
			b.XOR(b1, t, b1)
			b.SLLLI(t, int64(s.Shift), t)
			b.XOR(a1, t, a1)
		}
	})
}

// emitXboxPerm emits dst = 64-bit permutation of src via 8 XBOX + 7 OR,
// with the packed maps loaded from rodata.
func emitXboxPerm(b *isa.Builder, bitMaps [8][8]uint8, src, dst isa.Reg, acc [4]isa.Reg, mp isa.Reg) {
	b.WithClass(isa.ClassPerm, func() {
		for k := 0; k < 8; k += 2 {
			b.LoadConst64(mp, isa.XboxMap(bitMaps[k]))
			b.XBOX(k, src, mp, acc[k/2])
			b.LoadConst64(mp, isa.XboxMap(bitMaps[k+1]))
			b.XBOX(k+1, src, mp, dst)
			b.OR(acc[k/2], dst, acc[k/2])
		}
		b.OR(acc[0], acc[1], acc[0])
		b.OR(acc[2], acc[3], acc[2])
		b.OR(acc[0], acc[2], dst)
	})
}

// init3DESDecCtx writes the decryption key material: the inverse of EDE is
// D(k3), E(k2), D(k1), which the same 48-round kernel realizes with the
// stage keys [rev(ks3), ks2, rev(ks1)].
func init3DESDecCtx(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if err := init3DESKey(mem, ctx, key, iv); err != nil {
		return err
	}
	t, err := des.New3(key)
	if err != nil {
		return err
	}
	k1, k2, k3 := t.Stages()
	writeStage := func(off uint64, ks [16][2]uint32) {
		for i, pair := range ks {
			mem.Store(ctx+off+uint64(8*i), 4, uint64(pair[0]))
			mem.Store(ctx+off+uint64(8*i+4), 4, uint64(pair[1]))
		}
	}
	writeStage(desKS, des.FastDecryptKeys(k3))
	writeStage(desKS+128, k2.FastKeys())
	writeStage(desKS+256, des.FastDecryptKeys(k1))
	return nil
}

func build3DES(feat isa.Feature, dec bool) *isa.Program {
	name := "3des-"
	if dec {
		name = "3des-dec-"
	}
	b := isa.NewBuilder(name+feat.String(), feat)
	sp := [8]isa.Reg{isa.R4, isa.R5, isa.R6, isa.R7, isa.R20, isa.R21, isa.R22, isa.R23}
	kp := isa.R8
	lr := [2]isa.Reg{isa.R9, isa.R10}
	u, t, kt, tmp, tmp2 := isa.R11, isa.R12, isa.R13, isa.R14, isa.R15
	iv64, x := isa.R24, isa.R25
	masks := [5]isa.Reg{isa.R27, isa.R28, isa.R0, isa.R1, isa.R2}

	for i, r := range sp {
		b.LDA(r, int64(1024*i), isa.RA3)
	}
	b.LDA(kp, desKS, isa.RA3)
	if !feat.CryptoExt {
		for i, m := range permMaskValues {
			b.LoadImm32(masks[i], m)
		}
	}
	b.LDQ(iv64, desIV, isa.RA3)
	b.BEQ(isa.RA2, "done")

	ipBits, fpBits := des.KernelPermMaps()

	ct64 := isa.R3 // incoming ciphertext block (decrypt chaining)
	b.Label("loop")
	b.LDQ(x, 0, isa.RA0)
	if dec {
		b.MOV(x, ct64)
	} else {
		b.XOR(x, iv64, x) // CBC chaining
	}

	l, r := lr[0], lr[1]
	if feat.CryptoExt {
		// Combined load+IP via XBOX: bytes 0..3 = Lf, 4..7 = Rf.
		acc := [4]isa.Reg{u, t, kt, tmp}
		b.WithClass(isa.ClassPerm, func() {
			for k := 0; k < 4; k++ {
				b.LoadConst64(tmp2, isa.XboxMap(ipBits[k]))
				b.XBOX(k, x, tmp2, acc[k])
			}
			b.OR(acc[0], acc[1], acc[0])
			b.OR(acc[2], acc[3], acc[2])
			b.OR(acc[0], acc[2], l)
			b.ZEXTL(l, l)
			for k := 4; k < 8; k++ {
				b.LoadConst64(tmp2, isa.XboxMap(ipBits[k]))
				b.XBOX(k, x, tmp2, acc[k-4])
			}
			b.OR(acc[0], acc[1], acc[0])
			b.OR(acc[2], acc[3], acc[2])
			b.OR(acc[0], acc[2], r)
			b.SRLI(r, 32, r)
		})
	} else {
		b.ZEXTL(x, l)
		b.SRLI(x, 32, r)
		emitPermNet(b, des.IPSteps(), l, r, t, masks)
		// l, r = rotl3(r), rotl3(l).
		b.RotL32I(r, 3, u, tmp)
		b.RotL32I(l, 3, r, tmp)
		b.MOV(u, l)
	}

	// 48 rounds; an extra half-exchange after each 16-round stage.
	for i := 0; i < 48; i++ {
		b.LDL(kt, int64(8*i), kp)
		b.XOR(r, kt, u)
		b.RotR32I(r, 4, t, tmp)
		b.LDL(kt, int64(8*i+4), kp)
		b.XOR(t, kt, t)
		// Even S-boxes from u, odd from t.
		for m := 0; m < 4; m++ {
			b.SBoxXor(2*m, m, sp[2*m], u, l, tmp)
			b.SBoxXor(2*m+1, m, sp[2*m+1], t, l, tmp)
		}
		l, r = r, l
		if i%16 == 15 {
			l, r = r, l
		}
	}

	if feat.CryptoExt {
		// Y = l | r<<32, then FP via XBOX into the output block.
		b.SLLI(r, 32, t)
		b.OR(l, t, x)
		acc := [4]isa.Reg{u, t, kt, tmp}
		emitXboxPerm(b, fpBits, x, tmp2, acc, tmp2)
		if dec {
			b.XOR(tmp2, iv64, tmp2)
			b.STQ(tmp2, 0, isa.RA1)
			b.MOV(ct64, iv64)
		} else {
			b.MOV(tmp2, iv64)
			b.STQ(iv64, 0, isa.RA1)
		}
	} else {
		// l, r = rotr3(r), rotr3(l), then the inverse network.
		b.RotR32I(r, 3, u, tmp)
		b.RotR32I(l, 3, r, tmp)
		b.MOV(u, l)
		emitPermNet(b, des.FPSteps(), l, r, t, masks)
		b.SLLI(r, 32, t)
		if dec {
			b.OR(l, t, t)
			b.XOR(t, iv64, t)
			b.STQ(t, 0, isa.RA1)
			b.MOV(ct64, iv64)
		} else {
			b.OR(l, t, iv64)
			b.STQ(iv64, 0, isa.RA1)
		}
	}

	b.ADDQI(isa.RA0, 8, isa.RA0)
	b.ADDQI(isa.RA1, 8, isa.RA1)
	b.SUBQI(isa.RA2, 8, isa.RA2)
	b.BGT(isa.RA2, "loop")

	b.Label("done")
	b.STQ(iv64, desIV, isa.RA3)
	b.HALT()
	return b.Build()
}

// packGather encodes Gather entries as srcBit | dstSel<<8 | dstPos<<16.
func packGather(gs []des.Gather) []uint32 {
	out := make([]uint32, len(gs))
	for i, g := range gs {
		out[i] = uint32(g.SrcBit) | uint32(g.DstSel)<<8 | uint32(g.DstPos)<<16
	}
	return out
}

// build3DESSetup runs the DES key schedule three times: PC1, sixteen
// 28-bit rotations, and a data-driven PC2-plus-field-placement gather per
// round. Stage 2 subkeys are stored in decryption order, as the EDE kernel
// consumes them. All bit deposits are branch-free (CMOV selects the
// destination word), keeping the gather loops predictable.
func build3DESSetup(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("3des-setup-"+feat.String(), feat)
	pc1 := des.PC1Gather()
	pc2 := des.PC2Gather()
	pc1Off := b.DataWords32(packGather(pc1[:]))
	pc2Off := b.DataWords32(packGather(pc2[:]))
	shifts := des.KSShifts()

	kp := isa.R8
	c, d, cd := isa.R9, isa.R10, isa.R11
	ptr, e, t, t2 := isa.R12, isa.R13, isa.R14, isa.R15
	s, w := isa.R0, isa.R1
	kA, kB := isa.R22, isa.R23
	cnt, keyreg, mask28 := isa.R24, isa.R21, isa.R20

	b.LDA(kp, desKS, isa.RA3)
	b.LoadImm32(mask28, 0x0fffffff)
	b.BR("start")

	// gather48: cd -> (kA, kB) via the PC2+placement table.
	b.Label("gather48")
	b.MOV(isa.RZ, kA)
	b.MOV(isa.RZ, kB)
	b.LDA(ptr, pc2Off, isa.RGP)
	b.LoadImm(cnt, 48)
	b.Label("g48loop")
	b.LDL(e, 0, ptr)
	b.ANDI(e, 63, s)
	b.SRL(cd, s, t)
	b.ANDI(t, 1, t)
	b.SRLI(e, 16, s)
	b.SLL(t, s, t)
	b.EXTBI(e, 1, w)
	b.MOV(t, t2)
	b.CMOVNE(w, isa.RZ, t2) // word 0 deposit
	b.OR(kA, t2, kA)
	b.CMOVEQ(w, isa.RZ, t) // word 1 deposit
	b.OR(kB, t, kB)
	b.ADDQI(ptr, 4, ptr)
	b.SUBQI(cnt, 1, cnt)
	b.BGT(cnt, "g48loop")
	b.RET()

	b.Label("start")
	for st := 0; st < 3; st++ {
		// Big-endian 64-bit stage key.
		b.MOV(isa.RZ, keyreg)
		for i := 0; i < 8; i++ {
			b.LDB(t, desKey+int64(8*st+i), isa.RA3)
			b.INSBI(t, int64(7-i), t)
			b.OR(keyreg, t, keyreg)
		}
		// PC1 into the C and D halves.
		b.MOV(isa.RZ, c)
		b.MOV(isa.RZ, d)
		b.LDA(ptr, pc1Off, isa.RGP)
		b.LoadImm(cnt, 56)
		b.Label(fmt.Sprintf("pc1_%d", st))
		b.LDL(e, 0, ptr)
		b.ANDI(e, 63, s)
		b.SRL(keyreg, s, t)
		b.ANDI(t, 1, t)
		b.SRLI(e, 16, s)
		b.SLL(t, s, t)
		b.EXTBI(e, 1, w)
		b.MOV(t, t2)
		b.CMOVNE(w, isa.RZ, t2)
		b.OR(c, t2, c)
		b.CMOVEQ(w, isa.RZ, t)
		b.OR(d, t, d)
		b.ADDQI(ptr, 4, ptr)
		b.SUBQI(cnt, 1, cnt)
		b.BGT(cnt, fmt.Sprintf("pc1_%d", st))

		for r := 0; r < 16; r++ {
			sh := int64(shifts[r])
			for _, half := range []isa.Reg{c, d} {
				b.SLLI(half, sh, t)
				b.SRLI(half, 28-sh, t2)
				b.OR(t, t2, half)
				b.AND(half, mask28, half)
			}
			b.SLLI(c, 28, t)
			b.OR(t, d, cd)
			b.BSR("gather48")
			slot := r
			if st == 1 {
				slot = 15 - r // decryption order for the middle stage
			}
			b.STL(kA, int64(128*st+8*slot), kp)
			b.STL(kB, int64(128*st+8*slot+4), kp)
		}
	}
	b.HALT()
	return b.Build()
}
