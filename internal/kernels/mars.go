package kernels

import (
	"fmt"

	"cryptoarch/internal/ciphers"
	"cryptoarch/internal/ciphers/mars"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/simmem"
)

// MARS context layout: the 512-word S-box spans two 1KB-aligned
// architectural tables (S0, S1); the core E-function's 9-bit lookup is
// striped across them and selected by bit 8 of the index, as the paper
// suggests for larger S-boxes.
const (
	marsS0     = 0    // S[0..255]
	marsS1     = 1024 // S[256..511]
	marsK      = 2048 // 40 expanded key words
	marsIV     = 2208
	marsKey    = 2224
	marsT      = 2240 // 15-word key-expansion scratch
	marsCtxLen = 2304
)

func init() {
	register(&Kernel{
		Name:        "mars",
		KeyBits:     128,
		Rounds:      16,
		Author:      "IBM",
		Example:     "AES Candidate",
		NewBlock:    func(key []byte) (ciphers.Block, error) { return mars.New(key) },
		BlockBytes:  16,
		Build:       buildMARS,
		BuildDec:    buildMARSDec,
		BuildSetup:  buildMARSSetup,
		InitCtx:     initMARSCtx,
		InitKeyOnly: initMARSKey,
		CtxBytes:    marsCtxLen,
		KeyBytes:    16,
		SetupOff:    marsK,
		SetupLen:    40 * 4,
		IVOff:       marsIV,
	})
}

func initMARSKey(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if len(key) != 16 {
		return fmt.Errorf("mars kernel: key must be 16 bytes, got %d", len(key))
	}
	s := mars.Sbox()
	mem.WriteUint32s(ctx+marsS0, s[:])
	mem.WriteBytes(ctx+marsKey, key)
	if iv != nil {
		mem.WriteBytes(ctx+marsIV, iv)
	}
	return nil
}

func initMARSCtx(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if err := initMARSKey(mem, ctx, key, iv); err != nil {
		return err
	}
	m, err := mars.New(key)
	if err != nil {
		return err
	}
	k := m.Keys()
	mem.WriteUint32s(ctx+marsK, k[:])
	return nil
}

// marsRegs is the shared register plan.
type marsRegs struct {
	s0b, s1b, kp       isa.Reg
	t, t2, t3, el, erR isa.Reg
}

// emitMarsS512 emits dst = S[idx & 0x1ff]: a striped two-table SBOX pair
// with a CMOV select at the extension level, a masked load otherwise.
// mask9 must hold 0x1ff in the baseline (pass RZ with CryptoExt).
func emitMarsS512(b *isa.Builder, r marsRegs, idx, dst, mask9 isa.Reg) {
	if b.Feat.CryptoExt {
		b.SBOX(0, 0, r.s0b, idx, dst, false)
		b.SBOX(1, 0, r.s1b, idx, r.t3, false)
		b.WithClass(isa.ClassSubst, func() {
			b.SRLLI(idx, 8, r.t2)
			b.ANDI(r.t2, 1, r.t2)
			b.CMOVNE(r.t2, r.t3, dst)
		})
		return
	}
	b.WithClass(isa.ClassSubst, func() {
		b.AND(idx, mask9, r.t2)
		b.S4ADDQ(r.t2, r.s0b, r.t2)
		b.LDL(dst, 0, r.t2)
	})
}

// emitMarsE emits the E-function: (el, md, er) = E(in, K[k1], K[k2]).
// md is returned in register mdR.
func emitMarsE(b *isa.Builder, r marsRegs, in isa.Reg, k1off, k2off int64, mdR, mask9 isa.Reg) {
	b.LDL(r.t, k1off, r.kp)
	b.ADDL(in, r.t, mdR) // m = in + k1
	b.RotL32I(in, 13, r.erR, r.t)
	b.LDL(r.t, k2off, r.kp)
	b.MULL(r.erR, r.t, r.erR)
	b.RotL32I(r.erR, 10, r.erR, r.t)
	emitMarsS512(b, r, mdR, r.el, mask9)
	b.RotL32V(mdR, r.erR, r.t, r.t2) // m <<<= low5(r)
	b.MOV(r.t, mdR)
	b.XOR(r.el, r.erR, r.el)
	b.RotL32I(r.erR, 5, r.erR, r.t)
	b.XOR(r.el, r.erR, r.el)
	b.RotL32V(r.el, r.erR, r.t, r.t2) // l <<<= low5(r)
	b.MOV(r.t, r.el)
}

func buildMARS(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("mars-"+feat.String(), feat)
	r := marsRegs{
		s0b: isa.R4, s1b: isa.R5, kp: isa.R8,
		t: isa.R13, t2: isa.R14, t3: isa.R15, el: isa.R22, erR: isa.R25,
	}
	st := [4]isa.Reg{isa.R9, isa.R10, isa.R11, isa.R12}
	iv := [4]isa.Reg{isa.R23, isa.R24, isa.R27, isa.R28}
	md, mask9 := isa.R21, isa.R20

	b.LDA(r.s0b, marsS0, isa.RA3)
	b.LDA(r.s1b, marsS1, isa.RA3)
	b.LDA(r.kp, marsK, isa.RA3)
	if !feat.CryptoExt {
		b.LoadImm32(mask9, 0x1ff)
	}
	for i, reg := range iv {
		b.LDL(reg, marsIV+int64(4*i), isa.RA3)
	}
	b.BEQ(isa.RA2, "done")

	// sbox8 emits dst = S0/S1[byte sel of x].
	sbox8 := func(tbl int, sel int, x, dst isa.Reg) {
		base := r.s0b
		if tbl == 1 {
			base = r.s1b
		}
		b.SBoxLookup(tbl, sel, base, x, dst, dst, false)
	}

	b.Label("loop")
	for i := 0; i < 4; i++ {
		b.LDL(st[i], int64(4*i), isa.RA0)
		b.XOR(st[i], iv[i], st[i])
		b.LDL(r.t, int64(4*i), r.kp)
		b.ADDL(st[i], r.t, st[i])
	}

	cur := [4]int{0, 1, 2, 3}
	// Forward mixing.
	for i := 0; i < 8; i++ {
		a, bb, c, d := st[cur[0]], st[cur[1]], st[cur[2]], st[cur[3]]
		sbox8(0, 0, a, r.t)
		b.XOR(bb, r.t, bb)
		sbox8(1, 1, a, r.t)
		b.ADDL(bb, r.t, bb)
		sbox8(0, 2, a, r.t)
		b.ADDL(c, r.t, c)
		sbox8(1, 3, a, r.t)
		b.XOR(d, r.t, d)
		b.RotR32I(a, 24, a, r.t)
		if i == 0 || i == 4 {
			b.ADDL(a, d, a)
		}
		if i == 1 || i == 5 {
			b.ADDL(a, bb, a)
		}
		cur = [4]int{cur[1], cur[2], cur[3], cur[0]}
	}
	// Cryptographic core.
	for i := 0; i < 16; i++ {
		a, bb, c, d := st[cur[0]], st[cur[1]], st[cur[2]], st[cur[3]]
		emitMarsE(b, r, a, int64(4*(4+2*i)), int64(4*(5+2*i)), md, mask9)
		b.ADDL(c, md, c)
		if i < 8 {
			b.ADDL(bb, r.el, bb)
			b.XOR(d, r.erR, d)
		} else {
			b.ADDL(d, r.el, d)
			b.XOR(bb, r.erR, bb)
		}
		b.RotL32I(a, 13, a, r.t)
		cur = [4]int{cur[1], cur[2], cur[3], cur[0]}
	}
	// Backwards mixing.
	for i := 0; i < 8; i++ {
		a, bb, c, d := st[cur[0]], st[cur[1]], st[cur[2]], st[cur[3]]
		if i == 1 || i == 5 {
			b.SUBL(a, d, a)
		}
		if i == 2 || i == 6 {
			b.SUBL(a, bb, a)
		}
		sbox8(1, 0, a, r.t)
		b.XOR(bb, r.t, bb)
		sbox8(0, 3, a, r.t)
		b.SUBL(c, r.t, c)
		sbox8(1, 2, a, r.t)
		b.SUBL(d, r.t, d)
		sbox8(0, 1, a, r.t)
		b.XOR(d, r.t, d)
		b.RotL32I(a, 24, a, r.t)
		cur = [4]int{cur[1], cur[2], cur[3], cur[0]}
	}
	for i := 0; i < 4; i++ {
		b.LDL(r.t, int64(4*(36+i)), r.kp)
		b.SUBL(st[cur[i]], r.t, iv[i])
		b.STL(iv[i], int64(4*i), isa.RA1)
	}

	b.ADDQI(isa.RA0, 16, isa.RA0)
	b.ADDQI(isa.RA1, 16, isa.RA1)
	b.SUBQI(isa.RA2, 16, isa.RA2)
	b.BGT(isa.RA2, "loop")

	b.Label("done")
	for i, reg := range iv {
		b.STL(reg, marsIV+int64(4*i), isa.RA3)
	}
	b.HALT()
	return b.Build()
}

// buildMARSDec assembles the inverse cipher: each encryption phase is
// undone in reverse (backwards mixing first, then the keyed core with the
// role rotation unwound, then forward mixing), with CBC unchaining.
func buildMARSDec(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("mars-dec-"+feat.String(), feat)
	r := marsRegs{
		s0b: isa.R4, s1b: isa.R5, kp: isa.R8,
		t: isa.R13, t2: isa.R14, t3: isa.R15, el: isa.R22, erR: isa.R25,
	}
	st := [4]isa.Reg{isa.R9, isa.R10, isa.R11, isa.R12}
	iv := [4]isa.Reg{isa.R23, isa.R24, isa.R27, isa.R28}
	md, mask9 := isa.R21, isa.R20

	b.LDA(r.s0b, marsS0, isa.RA3)
	b.LDA(r.s1b, marsS1, isa.RA3)
	b.LDA(r.kp, marsK, isa.RA3)
	if !feat.CryptoExt {
		b.LoadImm32(mask9, 0x1ff)
	}
	for i, reg := range iv {
		b.LDL(reg, marsIV+int64(4*i), isa.RA3)
	}
	b.BEQ(isa.RA2, "done")

	sbox8 := func(tbl int, sel int, x, dst isa.Reg) {
		base := r.s0b
		if tbl == 1 {
			base = r.s1b
		}
		b.SBoxLookup(tbl, sel, base, x, dst, dst, false)
	}

	b.Label("loop")
	for i := 0; i < 4; i++ {
		b.LDL(st[i], int64(4*i), isa.RA0)
		b.LDL(r.t, int64(4*(36+i)), r.kp)
		b.ADDL(st[i], r.t, st[i])
	}

	cur := [4]int{0, 1, 2, 3}
	// Invert backwards mixing.
	for i := 7; i >= 0; i-- {
		cur = [4]int{cur[3], cur[0], cur[1], cur[2]} // undo role rotation
		a, bb, c, d := st[cur[0]], st[cur[1]], st[cur[2]], st[cur[3]]
		b.RotR32I(a, 24, a, r.t)
		sbox8(0, 1, a, r.t)
		b.XOR(d, r.t, d)
		sbox8(1, 2, a, r.t)
		b.ADDL(d, r.t, d)
		sbox8(0, 3, a, r.t)
		b.ADDL(c, r.t, c)
		sbox8(1, 0, a, r.t)
		b.XOR(bb, r.t, bb)
		if i == 2 || i == 6 {
			b.ADDL(a, bb, a)
		}
		if i == 1 || i == 5 {
			b.ADDL(a, d, a)
		}
	}
	// Invert the cryptographic core.
	for i := 15; i >= 0; i-- {
		cur = [4]int{cur[3], cur[0], cur[1], cur[2]}
		a, bb, c, d := st[cur[0]], st[cur[1]], st[cur[2]], st[cur[3]]
		b.RotR32I(a, 13, a, r.t)
		emitMarsE(b, r, a, int64(4*(4+2*i)), int64(4*(5+2*i)), md, mask9)
		if i < 8 {
			b.XOR(d, r.erR, d)
			b.SUBL(bb, r.el, bb)
		} else {
			b.XOR(bb, r.erR, bb)
			b.SUBL(d, r.el, d)
		}
		b.SUBL(c, md, c)
	}
	// Invert forward mixing.
	for i := 7; i >= 0; i-- {
		cur = [4]int{cur[3], cur[0], cur[1], cur[2]}
		a, bb, c, d := st[cur[0]], st[cur[1]], st[cur[2]], st[cur[3]]
		if i == 1 || i == 5 {
			b.SUBL(a, bb, a)
		}
		if i == 0 || i == 4 {
			b.SUBL(a, d, a)
		}
		b.RotL32I(a, 24, a, r.t)
		sbox8(1, 3, a, r.t)
		b.XOR(d, r.t, d)
		sbox8(0, 2, a, r.t)
		b.SUBL(c, r.t, c)
		sbox8(1, 1, a, r.t)
		b.SUBL(bb, r.t, bb)
		sbox8(0, 0, a, r.t)
		b.XOR(bb, r.t, bb)
	}
	// Subtract the input whitening, unchain, emit plaintext.
	for i := 0; i < 4; i++ {
		b.LDL(r.t, int64(4*i), r.kp)
		b.SUBL(st[cur[i]], r.t, r.t2)
		b.XOR(r.t2, iv[i], r.t2)
		b.STL(r.t2, int64(4*i), isa.RA1)
		b.LDL(iv[i], int64(4*i), isa.RA0)
	}

	b.ADDQI(isa.RA0, 16, isa.RA0)
	b.ADDQI(isa.RA1, 16, isa.RA1)
	b.SUBQI(isa.RA2, 16, isa.RA2)
	b.BGT(isa.RA2, "loop")

	b.Label("done")
	for i, reg := range iv {
		b.STL(reg, marsIV+int64(4*i), isa.RA3)
	}
	b.HALT()
	return b.Build()
}

// buildMARSSetup is the amended MARS key expansion: the 15-word linear
// recurrence, four S-box stirring passes per output group, and the
// branch-light multiplication-key fixing with its run-mask scan.
func buildMARSSetup(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("mars-setup-"+feat.String(), feat)
	r := marsRegs{
		s0b: isa.R4, s1b: isa.R5, kp: isa.R8,
		t: isa.R13, t2: isa.R14, t3: isa.R15, el: isa.R22, erR: isa.R25,
	}
	tb := isa.R6 // T scratch base
	mask9 := isa.R20
	acc, acc2 := isa.R9, isa.R10

	bfix := mars.BFix()
	bOff := b.DataWords32(bfix[:])

	b.LDA(r.s0b, marsS0, isa.RA3)
	b.LDA(r.s1b, marsS1, isa.RA3)
	b.LDA(r.kp, marsK, isa.RA3)
	b.LDA(tb, marsT, isa.RA3)
	b.LoadImm32(mask9, 0x1ff)

	// T[0..3] = key words; T[4] = 4; T[5..14] = 0.
	for i := 0; i < 4; i++ {
		b.LDL(r.t, marsKey+int64(4*i), isa.RA3)
		b.STL(r.t, int64(4*i), tb)
	}
	b.LDA(r.t, 4, isa.RZ)
	b.STL(r.t, 16, tb)
	for i := 5; i < 15; i++ {
		b.STL(isa.RZ, int64(4*i), tb)
	}

	for j := 0; j < 4; j++ {
		// Linear recurrence.
		for i := 0; i < 15; i++ {
			b.LDL(acc, int64(4*((i+8)%15)), tb)
			b.LDL(r.t, int64(4*((i+13)%15)), tb)
			b.XOR(acc, r.t, acc)
			b.RotL32I(acc, 3, acc, r.t)
			b.LDL(r.t, int64(4*i), tb)
			b.XOR(r.t, acc, r.t)
			b.XORI(r.t, int64(4*i+j), r.t)
			b.STL(r.t, int64(4*i), tb)
		}
		// Four stirring passes.
		for pass := 0; pass < 4; pass++ {
			for i := 0; i < 15; i++ {
				b.LDL(acc, int64(4*((i+14)%15)), tb)
				b.AND(acc, mask9, acc)
				b.S4ADDQ(acc, r.s0b, acc)
				b.LDL(acc, 0, acc)
				b.LDL(r.t, int64(4*i), tb)
				b.ADDL(r.t, acc, r.t)
				b.RotL32I(r.t, 9, r.t, r.t2)
				b.STL(r.t, int64(4*i), tb)
			}
		}
		// Emit ten key words.
		for i := 0; i < 10; i++ {
			b.LDL(r.t, int64(4*((4*i)%15)), tb)
			b.STL(r.t, int64(4*(10*j+i)), r.kp)
		}
	}

	// Fix the multiplication keys K[5], K[7], ..., K[35].
	w, maskR, runlen, bitPrev := isa.R12, isa.R21, isa.R23, isa.R24
	pos, bitCur, one := isa.R27, isa.R28, isa.R7
	b.LDA(one, 1, isa.RZ)
	for ki := 5; ki <= 35; ki += 2 {
		b.LDL(w, int64(4*ki), r.kp)
		b.ANDI(w, 3, r.t3) // j = K[i] & 3
		b.ORI(w, 3, w)     // w = K[i] | 3
		// Run-mask scan: mask of interior bits of runs >= 10, positions
		// 2..30 only.
		b.MOV(isa.RZ, maskR)
		b.LDA(runlen, 1, isa.RZ)
		b.ANDI(w, 1, bitPrev)
		b.LDA(pos, 1, isa.RZ)
		loop := fmt.Sprintf("scan%d", ki)
		endRun := fmt.Sprintf("endrun%d", ki)
		cont := fmt.Sprintf("cont%d", ki)
		short := fmt.Sprintf("short%d", ki)
		b.Label(loop)
		b.SRL(w, pos, bitCur)
		b.ANDI(bitCur, 1, bitCur)
		b.CMPEQI(pos, 32, r.t)
		b.BEQ(r.t, endRun+"chk") // pos < 32: compare bits
		b.LDA(bitCur, 2, isa.RZ) // sentinel terminates the final run
		b.Label(endRun + "chk")
		b.XOR(bitCur, bitPrev, r.t)
		b.BEQ(r.t, cont) // same bit: extend run
		// Run ended: if runlen >= 10 mark interior bits.
		b.CMPULTI(runlen, 10, r.t)
		b.BNE(r.t, short)
		b.SUBQI(runlen, 2, r.t2)  // interior width
		b.SLL(one, r.t2, r.t2)    // 1 << width
		b.SUBQI(r.t2, 1, r.t2)    // width ones
		b.SUBQ(pos, runlen, r.el) // run start - ... lo = pos - runlen + 1
		b.ADDQI(r.el, 1, r.el)
		b.SLL(r.t2, r.el, r.t2)
		b.OR(maskR, r.t2, maskR)
		b.Label(short)
		b.LDA(runlen, 0, isa.RZ)
		b.Label(cont)
		b.ADDQI(runlen, 1, runlen)
		b.MOV(bitCur, bitPrev)
		b.ADDQI(pos, 1, pos)
		b.CMPULTI(pos, 33, r.t)
		b.BNE(r.t, loop)
		// Clamp to positions 2..30.
		b.LoadImm32(r.t, 0x7ffffffc)
		b.AND(maskR, r.t, maskR)
		// p = rotl(B[j], K[i-1] & 31); K[i] = w ^ (p & M).
		b.S4ADDQ(r.t3, isa.RGP, r.t)
		b.LDL(r.t, bOff, r.t)
		b.LDL(r.t2, int64(4*(ki-1)), r.kp)
		b.RotL32V(r.t, r.t2, acc2, r.erR)
		b.AND(acc2, maskR, acc2)
		b.XOR(w, acc2, w)
		b.STL(w, int64(4*ki), r.kp)
	}
	b.HALT()
	return b.Build()
}
