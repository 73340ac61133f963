package kernels

import (
	"fmt"

	"cryptoarch/internal/ciphers"
	"cryptoarch/internal/ciphers/twofish"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/simmem"
)

// Twofish context layout. T0..T3 are the key-dependent full-keying tables;
// q0/q1 and the MDS column tables are static data used by key setup.
const (
	tfT0     = 0
	tfK      = 4096 // 40 subkey words
	tfQ0     = 4256 // 256 bytes (static)
	tfQ1     = 4512 // 256 bytes (static)
	tfMds    = 4768 // 4 x 256 words (static)
	tfIV     = 8864 // 16 bytes
	tfKey    = 8880 // 16 bytes
	tfCtxLen = 8896
)

func init() {
	register(&Kernel{
		Name:        "twofish",
		KeyBits:     128,
		Rounds:      16,
		Author:      "Counterpane",
		Example:     "AES Candidate",
		NewBlock:    func(key []byte) (ciphers.Block, error) { return twofish.New(key) },
		BlockBytes:  16,
		Build:       buildTwofish,
		BuildDec:    buildTwofishDec,
		BuildSetup:  buildTwofishSetup,
		InitCtx:     initTwofishCtx,
		InitKeyOnly: initTwofishKey,
		CtxBytes:    tfCtxLen,
		KeyBytes:    16,
		SetupOff:    0,
		SetupLen:    tfK + 40*4, // the four tables plus the subkeys
		IVOff:       tfIV,
	})
}

func initTwofishKey(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if len(key) != 16 {
		return fmt.Errorf("twofish kernel: key must be 16 bytes, got %d", len(key))
	}
	q0, q1 := twofish.QTables()
	mem.WriteBytes(ctx+tfQ0, q0[:])
	mem.WriteBytes(ctx+tfQ1, q1[:])
	mds := twofish.MdsColumns()
	for i := 0; i < 4; i++ {
		mem.WriteUint32s(ctx+tfMds+uint64(1024*i), mds[i][:])
	}
	mem.WriteBytes(ctx+tfKey, key)
	if iv != nil {
		mem.WriteBytes(ctx+tfIV, iv)
	}
	return nil
}

func initTwofishCtx(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if err := initTwofishKey(mem, ctx, key, iv); err != nil {
		return err
	}
	tf, err := twofish.New(key)
	if err != nil {
		return err
	}
	tabs := tf.Tables()
	for i := 0; i < 4; i++ {
		mem.WriteUint32s(ctx+uint64(1024*i), tabs[i][:])
	}
	k := tf.Keys()
	mem.WriteUint32s(ctx+tfK, k[:])
	return nil
}

func buildTwofish(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("twofish-"+feat.String(), feat)
	tt := [4]isa.Reg{isa.R4, isa.R5, isa.R6, isa.R7}
	kp := isa.R8
	st := [4]isa.Reg{isa.R9, isa.R10, isa.R11, isa.R12} // a b c d
	iv := [4]isa.Reg{isa.R23, isa.R24, isa.R25, isa.R27}
	t0, t1, t, tt2 := isa.R13, isa.R14, isa.R15, isa.R22

	for i, r := range tt {
		b.LDA(r, int64(1024*i), isa.RA3)
	}
	b.LDA(kp, tfK, isa.RA3)
	for i, r := range iv {
		b.LDL(r, tfIV+int64(4*i), isa.RA3)
	}
	b.BEQ(isa.RA2, "done")

	b.Label("loop")
	for i := 0; i < 4; i++ {
		b.LDL(st[i], int64(4*i), isa.RA0)
		b.XOR(st[i], iv[i], st[i])
		b.LDL(t, int64(4*i), kp)
		b.XOR(st[i], t, st[i])
	}

	// 16 rounds; the (a,b,c,d) -> (c,d,a,b) exchange is register renaming.
	cur := [4]int{0, 1, 2, 3}
	for r := 0; r < 16; r++ {
		a, bb, c, d := st[cur[0]], st[cur[1]], st[cur[2]], st[cur[3]]
		emitTfG(b, tt, kp, a, bb, t0, t1, t, tt2, r)
		// c = rotr(c ^ F0, 1); d = rotl(d,1) ^ F1.
		b.XOR(c, tt2, c)
		b.RotR32I(c, 1, c, t)
		b.RotL32I(d, 1, t, tt2)
		b.XOR(t, t1, d)
		cur = [4]int{cur[2], cur[3], cur[0], cur[1]}
	}

	// Output whitening: ciphertext = (c,d,a,b) ^ K[4..7]; also the new IV.
	outIdx := [4]int{cur[2], cur[3], cur[0], cur[1]}
	for i := 0; i < 4; i++ {
		b.LDL(t, int64(4*(4+i)), kp)
		b.XOR(st[outIdx[i]], t, iv[i])
		b.STL(iv[i], int64(4*i), isa.RA1)
	}

	b.ADDQI(isa.RA0, 16, isa.RA0)
	b.ADDQI(isa.RA1, 16, isa.RA1)
	b.SUBQI(isa.RA2, 16, isa.RA2)
	b.BGT(isa.RA2, "loop")

	b.Label("done")
	for i, r := range iv {
		b.STL(r, tfIV+int64(4*i), isa.RA3)
	}
	b.HALT()
	return b.Build()
}

// emitTfG emits the round function g twice (t0 = g(a), t1 = g(rotl(b,8)))
// and the two pseudo-Hadamard sums with the round keys at k0off/k1off:
// tt2 = t0+t1+K[2r+8], t1 = t0+2*t1+K[2r+9].
func emitTfG(b *isa.Builder, tt [4]isa.Reg, kp isa.Reg, a, bb, t0, t1, t, tt2 isa.Reg, r int) {
	b.SBoxLookup(0, 0, tt[0], a, t0, t0, false)
	b.SBoxLookup(1, 1, tt[1], a, t, t, false)
	b.XOR(t0, t, t0)
	b.SBoxLookup(2, 2, tt[2], a, t, t, false)
	b.XOR(t0, t, t0)
	b.SBoxLookup(3, 3, tt[3], a, t, t, false)
	b.XOR(t0, t, t0)
	// g(rotl(b,8)): same tables, rotated byte selectors.
	b.SBoxLookup(0, 3, tt[0], bb, t1, t1, false)
	b.SBoxLookup(1, 0, tt[1], bb, t, t, false)
	b.XOR(t1, t, t1)
	b.SBoxLookup(2, 1, tt[2], bb, t, t, false)
	b.XOR(t1, t, t1)
	b.SBoxLookup(3, 2, tt[3], bb, t, t, false)
	b.XOR(t1, t, t1)
	b.ADDL(t0, t1, tt2) // t0+t1
	b.ADDL(tt2, t1, t1) // t0+2*t1
	b.LDL(t, int64(4*(8+2*r)), kp)
	b.ADDL(tt2, t, tt2)
	b.LDL(t, int64(4*(9+2*r)), kp)
	b.ADDL(t1, t, t1)
}

// buildTwofishDec assembles the inverse cipher: whitening with K[4..7],
// sixteen rounds in reverse (undoing each round's half-exchange first),
// then K[0..3], with CBC unchaining.
func buildTwofishDec(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("twofish-dec-"+feat.String(), feat)
	tt := [4]isa.Reg{isa.R4, isa.R5, isa.R6, isa.R7}
	kp := isa.R8
	st := [4]isa.Reg{isa.R9, isa.R10, isa.R11, isa.R12} // c d a b on load
	iv := [4]isa.Reg{isa.R23, isa.R24, isa.R25, isa.R27}
	t0, t1, t, tt2 := isa.R13, isa.R14, isa.R15, isa.R22

	for i, r := range tt {
		b.LDA(r, int64(1024*i), isa.RA3)
	}
	b.LDA(kp, tfK, isa.RA3)
	for i, r := range iv {
		b.LDL(r, tfIV+int64(4*i), isa.RA3)
	}
	b.BEQ(isa.RA2, "done")

	b.Label("loop")
	// Whitened load: (c,d,a,b) = ct words ^ K[4..7].
	// st[0]=c st[1]=d st[2]=a st[3]=b.
	for i := 0; i < 4; i++ {
		b.LDL(st[i], int64(4*i), isa.RA0)
		b.LDL(t, int64(4*(4+i)), kp)
		b.XOR(st[i], t, st[i])
	}
	// Logical order (a,b,c,d) over physical registers.
	cur := [4]int{2, 3, 0, 1}
	for r := 15; r >= 0; r-- {
		// Undo the round's exchange: (a,b,c,d) = (c,d,a,b).
		cur = [4]int{cur[2], cur[3], cur[0], cur[1]}
		a, bb, c, d := st[cur[0]], st[cur[1]], st[cur[2]], st[cur[3]]
		emitTfG(b, tt, kp, a, bb, t0, t1, t, tt2, r)
		// c = rotl(c,1) ^ F0; d = rotr(d ^ F1, 1).
		b.RotL32I(c, 1, c, t)
		b.XOR(c, tt2, c)
		b.XOR(d, t1, d)
		b.RotR32I(d, 1, d, t)
	}
	// Unwhiten with K[0..3], unchain, emit plaintext.
	for i := 0; i < 4; i++ {
		b.LDL(t, int64(4*i), kp)
		b.XOR(st[cur[i]], t, t0)
		b.XOR(t0, iv[i], t0)
		b.STL(t0, int64(4*i), isa.RA1)
		b.LDL(iv[i], int64(4*i), isa.RA0)
	}

	b.ADDQI(isa.RA0, 16, isa.RA0)
	b.ADDQI(isa.RA1, 16, isa.RA1)
	b.SUBQI(isa.RA2, 16, isa.RA2)
	b.BGT(isa.RA2, "loop")

	b.Label("done")
	for i, r := range iv {
		b.STL(r, tfIV+int64(4*i), isa.RA3)
	}
	b.HALT()
	return b.Build()
}

// hByteRegs parameterizes the per-byte q chain of the h function.
type tfSetupRegs struct {
	q0b, q1b, mdsb isa.Reg
	x, l0, l1, out isa.Reg
	t, t2, t3      isa.Reg
}

// emitTfHByte emits out ^= mdsCol[i][qc[qb[qa[x_i] ^ l1_i] ^ l0_i]] with
// the spec's per-byte q selection for k=2.
func emitTfHByte(b *isa.Builder, r tfSetupRegs, i int) {
	qsel := [4][3]bool{ // {inner, middle, outer}: true = q1
		{false, false, true},
		{true, false, false},
		{false, true, true},
		{true, true, false},
	}
	qbase := func(one bool) isa.Reg {
		if one {
			return r.q1b
		}
		return r.q0b
	}
	b.EXTBI(r.x, int64(i), r.t) // x_i
	b.ADDQ(r.t, qbase(qsel[i][0]), r.t)
	b.LDB(r.t, 0, r.t)
	b.EXTBI(r.l1, int64(i), r.t2)
	b.XOR(r.t, r.t2, r.t)
	b.ADDQ(r.t, qbase(qsel[i][1]), r.t)
	b.LDB(r.t, 0, r.t)
	b.EXTBI(r.l0, int64(i), r.t2)
	b.XOR(r.t, r.t2, r.t)
	b.ADDQ(r.t, qbase(qsel[i][2]), r.t)
	b.LDB(r.t, 0, r.t)
	// out ^= mdsCol[i][z]
	b.LDA(r.t2, int64(1024*i), r.mdsb) // mds table i base
	b.S4ADDQ(r.t, r.t2, r.t)
	b.LDL(r.t, 0, r.t)
	b.XOR(r.out, r.t, r.out)
}

// buildTwofishSetup computes the RS key words, the 40 subkeys (via the h
// function on the rho multiples) and the four full-keying tables.
func buildTwofishSetup(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("twofish-setup-"+feat.String(), feat)
	r := tfSetupRegs{
		q0b: isa.R4, q1b: isa.R5, mdsb: isa.R6,
		x: isa.R9, l0: isa.R10, l1: isa.R11, out: isa.R12,
		t: isa.R13, t2: isa.R14, t3: isa.R15,
	}
	kp := isa.R8
	m := [4]isa.Reg{isa.R16, isa.R17, isa.R18, isa.R20} // key words m0..m3
	s0r, s1r := isa.R21, isa.R22
	cnt, acc, acc2, rho := isa.R23, isa.R24, isa.R25, isa.R27
	gA, gB, gP := isa.R0, isa.R1, isa.R2 // gfmul operands/product

	b.LDA(r.q0b, tfQ0, isa.RA3)
	b.LDA(r.q1b, tfQ1, isa.RA3)
	b.LDA(r.mdsb, tfMds, isa.RA3)
	b.LDA(kp, tfK, isa.RA3)
	for i, reg := range m {
		b.LDL(reg, tfKey+int64(4*i), isa.RA3)
	}

	// RS words: s[half] = sum over rows/cols of gfmul(rs[row][col],
	// keybyte) in GF(2^8) mod 0x14d. The RS matrix is program data.
	rsm := twofish.RSMatrix()
	var rsFlat []uint32
	for row := 0; row < 4; row++ {
		for col := 0; col < 8; col++ {
			rsFlat = append(rsFlat, uint32(rsm[row][col]))
		}
	}
	rsOff := b.DataWords32(rsFlat)
	// gfmul subroutine: gP = gA * gB mod 0x14d (shift-and-add).
	b.BR("afterGfmul")
	b.Label("gfmul")
	b.MOV(isa.RZ, gP)
	b.Label("gfloop")
	b.ANDI(gB, 1, r.t3)
	b.BEQ(r.t3, "gfskip")
	b.XOR(gP, gA, gP)
	b.Label("gfskip")
	b.ADDL(gA, gA, gA)
	b.SRLLI(gA, 8, r.t3)
	b.BEQ(r.t3, "gfnored")
	b.XORI(gA, 0x4d, gA) // 0x14d: the 0x100 bit clears via ZEXTB below
	b.ZEXTB(gA, gA)
	b.Label("gfnored")
	b.SRLLI(gB, 1, gB)
	b.BNE(gB, "gfloop")
	b.RET()
	b.Label("afterGfmul")

	for half := 0; half < 2; half++ {
		sReg := s0r
		if half == 1 {
			sReg = s1r
		}
		b.MOV(isa.RZ, sReg)
		for row := 0; row < 4; row++ {
			b.MOV(isa.RZ, acc)
			for col := 0; col < 8; col++ {
				b.LDL(gA, rsOff+int64(4*(8*row+col)), isa.RGP)
				// key byte 8*half+col.
				kb := 8*half + col
				b.LDL(r.t, tfKey+int64(4*(kb/4)), isa.RA3)
				b.EXTBI(r.t, int64(kb%4), gB)
				b.BSR("gfmul")
				b.XOR(acc, gP, acc)
			}
			b.INSBI(acc, int64(row), r.t)
			b.OR(sReg, r.t, sReg)
		}
	}

	// h subroutine: out = h(x, l0, l1).
	b.BR("afterH")
	b.Label("hfunc")
	b.MOV(isa.RZ, r.out)
	for i := 0; i < 4; i++ {
		emitTfHByte(b, r, i)
	}
	b.RET()
	b.Label("afterH")

	// Subkeys: for i in 0..19: A = h(2i*rho, m0, m2);
	// B = rotl(h((2i+1)*rho, m1, m3), 8); K[2i] = A+B;
	// K[2i+1] = rotl(A+2B, 9).
	b.LoadImm32(rho, 0x01010101)
	b.MOV(isa.RZ, cnt) // cnt = 2i byte value stepper: x = cnt*rho
	for i := 0; i < 20; i++ {
		b.MULL(cnt, rho, r.x)
		b.MOV(m[0], r.l0)
		b.MOV(m[2], r.l1)
		b.BSR("hfunc")
		b.MOV(r.out, acc) // A
		b.ADDLI(cnt, 1, cnt)
		b.MULL(cnt, rho, r.x)
		b.MOV(m[1], r.l0)
		b.MOV(m[3], r.l1)
		b.BSR("hfunc")
		b.RotL32I(r.out, 8, acc2, r.t) // B
		b.ADDL(acc, acc2, r.t)         // A+B
		b.STL(r.t, int64(8*i), kp)
		b.ADDL(r.t, acc2, r.t) // A+2B
		b.RotL32I(r.t, 9, r.t2, r.t3)
		b.STL(r.t2, int64(8*i+4), kp)
		b.ADDLI(cnt, 1, cnt)
	}

	// Full-keying tables: T_i[v] = mdsCol[i][hByte(i, v, s1_i, s0_i)].
	// Loop v = 0..255, emitting the four chains per iteration.
	b.MOV(s1r, r.l0) // outer bytes come from S1
	b.MOV(s0r, r.l1)
	b.MOV(isa.RZ, cnt)
	b.Label("tblloop")
	// x = v replicated into all four byte lanes so EXTBI(i) works.
	b.MOV(cnt, r.x)
	b.SLLLI(cnt, 8, r.t)
	b.OR(r.x, r.t, r.x)
	b.SLLLI(cnt, 16, r.t)
	b.OR(r.x, r.t, r.x)
	b.SLLLI(cnt, 24, r.t)
	b.OR(r.x, r.t, r.x)
	for i := 0; i < 4; i++ {
		b.MOV(isa.RZ, r.out)
		emitTfHByte(b, r, i)
		// Store into T_i[v].
		b.S4ADDQ(cnt, isa.RA3, r.t2)
		if i > 0 {
			b.LDA(r.t2, int64(1024*i), r.t2)
		}
		b.STL(r.out, 0, r.t2)
	}
	b.ADDLI(cnt, 1, cnt)
	b.SRLLI(cnt, 8, r.t) // loop while v < 256
	b.BEQ(r.t, "tblloop")
	if feat.CryptoExt {
		b.SBOXSYNC(isa.SboxAll)
	}
	b.HALT()
	return b.Build()
}
