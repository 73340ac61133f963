package kernels

import (
	"fmt"

	"cryptoarch/internal/ciphers"
	"cryptoarch/internal/ciphers/rc6"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/simmem"
)

// RC6 context layout: no tables, just the 44-word round-key array.
const (
	rc6S      = 0
	rc6IV     = 176
	rc6Key    = 192
	rc6CtxLen = 208
)

func init() {
	register(&Kernel{
		Name:        "rc6",
		KeyBits:     128,
		Rounds:      rc6.Rounds,
		Author:      "RSA Security",
		Example:     "AES Candidate",
		NewBlock:    func(key []byte) (ciphers.Block, error) { return rc6.New(key) },
		BlockBytes:  16,
		Build:       buildRC6,
		BuildDec:    buildRC6Dec,
		BuildSetup:  buildRC6Setup,
		InitCtx:     initRC6Ctx,
		InitKeyOnly: initRC6Key,
		CtxBytes:    rc6CtxLen,
		KeyBytes:    16,
		SetupOff:    rc6S,
		SetupLen:    44 * 4,
		IVOff:       rc6IV,
	})
}

func initRC6Key(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if len(key) != 16 {
		return fmt.Errorf("rc6 kernel: key must be 16 bytes, got %d", len(key))
	}
	mem.WriteBytes(ctx+rc6Key, key)
	if iv != nil {
		mem.WriteBytes(ctx+rc6IV, iv)
	}
	return nil
}

func initRC6Ctx(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if err := initRC6Key(mem, ctx, key, iv); err != nil {
		return err
	}
	c, err := rc6.New(key)
	if err != nil {
		return err
	}
	s := c.Keys()
	mem.WriteUint32s(ctx+rc6S, s[:])
	return nil
}

func buildRC6(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("rc6-"+feat.String(), feat)
	sp := isa.R8
	st := [4]isa.Reg{isa.R9, isa.R10, isa.R11, isa.R12} // A B C D
	iv := [4]isa.Reg{isa.R23, isa.R24, isa.R25, isa.R27}
	t, u, tt, t2 := isa.R13, isa.R14, isa.R15, isa.R22

	b.LDA(sp, rc6S, isa.RA3)
	for i, r := range iv {
		b.LDL(r, rc6IV+int64(4*i), isa.RA3)
	}
	b.BEQ(isa.RA2, "done")

	b.Label("loop")
	for i := 0; i < 4; i++ {
		b.LDL(st[i], int64(4*i), isa.RA0)
		b.XOR(st[i], iv[i], st[i])
	}
	// B += S[0]; D += S[1].
	b.LDL(t, 0, sp)
	b.ADDL(st[1], t, st[1])
	b.LDL(t, 4, sp)
	b.ADDL(st[3], t, st[3])

	cur := [4]int{0, 1, 2, 3}
	for i := 1; i <= rc6.Rounds; i++ {
		a, bb, c, d := st[cur[0]], st[cur[1]], st[cur[2]], st[cur[3]]
		// t = rotl(B*(2B+1), 5); u = rotl(D*(2D+1), 5).
		b.ADDL(bb, bb, t)
		b.ADDLI(t, 1, t)
		b.MULL(bb, t, t)
		b.RotL32I(t, 5, t, t2)
		b.ADDL(d, d, u)
		b.ADDLI(u, 1, u)
		b.MULL(d, u, u)
		b.RotL32I(u, 5, u, t2)
		// A = rotl(A^t, u) + S[2i]; C = rotl(C^u, t) + S[2i+1].
		b.XOR(a, t, a)
		b.RotL32V(a, u, tt, t2)
		b.LDL(t2, int64(8*i), sp)
		b.ADDL(tt, t2, a)
		b.XOR(c, u, c)
		b.RotL32V(c, t, tt, t2)
		b.LDL(t2, int64(8*i+4), sp)
		b.ADDL(tt, t2, c)
		cur = [4]int{cur[1], cur[2], cur[3], cur[0]}
	}
	// A += S[42]; C += S[43]; write ciphertext and chain the IV.
	b.LDL(t, 42*4, sp)
	b.ADDL(st[cur[0]], t, st[cur[0]])
	b.LDL(t, 43*4, sp)
	b.ADDL(st[cur[2]], t, st[cur[2]])
	for i := 0; i < 4; i++ {
		b.MOV(st[cur[i]], iv[i])
		b.STL(iv[i], int64(4*i), isa.RA1)
	}

	b.ADDQI(isa.RA0, 16, isa.RA0)
	b.ADDQI(isa.RA1, 16, isa.RA1)
	b.SUBQI(isa.RA2, 16, isa.RA2)
	b.BGT(isa.RA2, "loop")

	b.Label("done")
	for i, r := range iv {
		b.STL(r, rc6IV+int64(4*i), isa.RA3)
	}
	b.HALT()
	return b.Build()
}

// buildRC6Dec assembles the inverse cipher: rounds run backwards with the
// data-dependent rotates reversed, and the CBC chain is unwound
// (plaintext = D(ct) ^ iv, then iv = ct).
func buildRC6Dec(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("rc6-dec-"+feat.String(), feat)
	sp := isa.R8
	st := [4]isa.Reg{isa.R9, isa.R10, isa.R11, isa.R12} // A B C D
	iv := [4]isa.Reg{isa.R23, isa.R24, isa.R25, isa.R27}
	t, u, tt, t2 := isa.R13, isa.R14, isa.R15, isa.R22

	b.LDA(sp, rc6S, isa.RA3)
	for i, r := range iv {
		b.LDL(r, rc6IV+int64(4*i), isa.RA3)
	}
	b.BEQ(isa.RA2, "done")

	b.Label("loop")
	for i := 0; i < 4; i++ {
		b.LDL(st[i], int64(4*i), isa.RA0)
	}
	// C -= S[43]; A -= S[42].
	b.LDL(t, 43*4, sp)
	b.SUBL(st[2], t, st[2])
	b.LDL(t, 42*4, sp)
	b.SUBL(st[0], t, st[0])

	cur := [4]int{0, 1, 2, 3}
	for i := rc6.Rounds; i >= 1; i-- {
		// Undo the round's renaming first: (a,b,c,d) = (d,a,b,c).
		cur = [4]int{cur[3], cur[0], cur[1], cur[2]}
		a, bb, c, d := st[cur[0]], st[cur[1]], st[cur[2]], st[cur[3]]
		// u = rotl(D*(2D+1),5); t = rotl(B*(2B+1),5).
		b.ADDL(d, d, u)
		b.ADDLI(u, 1, u)
		b.MULL(d, u, u)
		b.RotL32I(u, 5, u, t2)
		b.ADDL(bb, bb, t)
		b.ADDLI(t, 1, t)
		b.MULL(bb, t, t)
		b.RotL32I(t, 5, t, t2)
		// C = rotr(C - S[2i+1], t) ^ u; A = rotr(A - S[2i], u) ^ t.
		b.LDL(t2, int64(8*i+4), sp)
		b.SUBL(c, t2, c)
		b.RotR32V(c, t, tt, t2)
		b.XOR(tt, u, c)
		b.LDL(t2, int64(8*i), sp)
		b.SUBL(a, t2, a)
		b.RotR32V(a, u, tt, t2)
		b.XOR(tt, t, a)
	}
	// D -= S[1]; B -= S[0]; unchain and emit plaintext.
	b.LDL(t, 4, sp)
	b.SUBL(st[cur[3]], t, st[cur[3]])
	b.LDL(t, 0, sp)
	b.SUBL(st[cur[1]], t, st[cur[1]])
	for i := 0; i < 4; i++ {
		b.XOR(st[cur[i]], iv[i], t)
		b.STL(t, int64(4*i), isa.RA1)
		b.LDL(iv[i], int64(4*i), isa.RA0) // iv = this ciphertext block
	}

	b.ADDQI(isa.RA0, 16, isa.RA0)
	b.ADDQI(isa.RA1, 16, isa.RA1)
	b.SUBQI(isa.RA2, 16, isa.RA2)
	b.BGT(isa.RA2, "loop")

	b.Label("done")
	for i, r := range iv {
		b.STL(r, rc6IV+int64(4*i), isa.RA3)
	}
	b.HALT()
	return b.Build()
}

// buildRC6Setup is the RC5-style schedule: fill S with the arithmetic
// progression from P32/Q32, then three interleaved mixing passes with
// data-dependent rotates.
func buildRC6Setup(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("rc6-setup-"+feat.String(), feat)
	sp := isa.R8
	a, bb, iR, jR := isa.R9, isa.R10, isa.R11, isa.R12
	t, t2, t3, cnt := isa.R13, isa.R14, isa.R15, isa.R22
	l := [4]isa.Reg{isa.R23, isa.R24, isa.R25, isa.R27}
	q := isa.R0

	b.LDA(sp, rc6S, isa.RA3)
	// S[0] = P32; S[i] = S[i-1] + Q32.
	b.LoadImm32(t, 0xB7E15163)
	b.LoadImm32(q, 0x9E3779B9)
	b.MOV(sp, t2)
	b.LoadImm(cnt, 44)
	b.Label("fill")
	b.STL(t, 0, t2)
	b.ADDL(t, q, t)
	b.ADDQI(t2, 4, t2)
	b.SUBQI(cnt, 1, cnt)
	b.BGT(cnt, "fill")

	for i, r := range l {
		b.LDL(r, rc6Key+int64(4*i), isa.RA3)
	}
	b.MOV(isa.RZ, a)
	b.MOV(isa.RZ, bb)
	b.MOV(isa.RZ, iR)
	b.MOV(isa.RZ, jR)
	b.LoadImm(cnt, 3*44)
	b.Label("mix")
	// a = S[i] = rotl(S[i]+a+b, 3)
	b.S4ADDQ(iR, sp, t2)
	b.LDL(t, 0, t2)
	b.ADDL(t, a, t)
	b.ADDL(t, bb, t)
	b.RotL32I(t, 3, a, t3)
	b.STL(a, 0, t2)
	// b = L[j] = rotl(L[j]+a+b, a+b). L is kept in registers; select by j
	// with a 4-way dispatch.
	b.ADDL(a, bb, t) // rotation amount (and addend)
	for j := 0; j < 4; j++ {
		b.CMPEQI(jR, int64(j), t2)
		b.BEQ(t2, fmt.Sprintf("notj%d", j))
		b.ADDL(l[j], t, t2)
		b.RotL32V(t2, t, bb, t3)
		b.MOV(bb, l[j])
		b.BR("jdone")
		b.Label(fmt.Sprintf("notj%d", j))
	}
	b.Label("jdone")
	// i = (i+1) % 44; j = (j+1) % 4.
	b.ADDLI(iR, 1, iR)
	b.CMPEQI(iR, 44, t2)
	b.CMOVNE(t2, isa.RZ, iR)
	b.ADDLI(jR, 1, jR)
	b.ANDI(jR, 3, jR)
	b.SUBQI(cnt, 1, cnt)
	b.BGT(cnt, "mix")
	b.HALT()
	return b.Build()
}
