package kernels

import (
	"fmt"

	"cryptoarch/internal/ciphers"
	"cryptoarch/internal/ciphers/rijndael"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/simmem"
)

// Rijndael (AES-128) context layout. The four T-tables and the S-box are
// key-independent static data (present for both full-context and
// setup-only runs); only the 44 round-key words are key material.
const (
	aesTe0    = 0
	aesTe1    = 1024
	aesTe2    = 2048
	aesTe3    = 3072
	aesSbox   = 4096 // 256 x 32-bit zero-extended S-box entries
	aesRK     = 5120 // 44 words
	aesIV     = 5296 // 16 bytes
	aesKey    = 5312 // 16 bytes
	aesCtxLen = 5328
)

func init() {
	register(&Kernel{
		Name:        "rijndael",
		KeyBits:     128,
		Rounds:      10,
		Author:      "Rijmen",
		Example:     "AES Candidate",
		NewBlock:    func(key []byte) (ciphers.Block, error) { return rijndael.New(key) },
		BlockBytes:  16,
		Build:       buildRijndael,
		BuildDec:    buildRijndaelDec,
		BuildSetup:  buildRijndaelSetup,
		InitCtx:     initRijndaelCtx,
		InitDecCtx:  initRijndaelDecCtx,
		InitKeyOnly: initRijndaelKey,
		CtxBytes:    aesCtxLen,
		KeyBytes:    16,
		SetupOff:    aesRK,
		SetupLen:    44 * 4,
		IVOff:       aesIV,
	})
}

func initRijndaelKey(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if len(key) != 16 {
		return fmt.Errorf("rijndael kernel: key must be 16 bytes, got %d", len(key))
	}
	te := rijndael.Tables()
	for t := 0; t < 4; t++ {
		mem.WriteUint32s(ctx+uint64(1024*t), te[t][:])
	}
	sb := rijndael.Sbox()
	words := make([]uint32, 256)
	for i, v := range sb {
		words[i] = uint32(v)
	}
	mem.WriteUint32s(ctx+aesSbox, words)
	mem.WriteBytes(ctx+aesKey, key)
	if iv != nil {
		mem.WriteBytes(ctx+aesIV, iv)
	}
	return nil
}

func initRijndaelCtx(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if err := initRijndaelKey(mem, ctx, key, iv); err != nil {
		return err
	}
	r, err := rijndael.New(key)
	if err != nil {
		return err
	}
	mem.WriteUint32s(ctx+aesRK, r.RoundKeys())
	return nil
}

// initRijndaelDecCtx writes the equivalent-inverse-cipher context: the
// same layout as encryption but with the Td tables, the inverse S-box and
// the InvMixColumns-adjusted round keys.
func initRijndaelDecCtx(mem *simmem.Mem, ctx uint64, key, iv []byte) error {
	if len(key) != 16 {
		return fmt.Errorf("rijndael kernel: key must be 16 bytes, got %d", len(key))
	}
	td := rijndael.DecTables()
	for t := 0; t < 4; t++ {
		mem.WriteUint32s(ctx+uint64(1024*t), td[t][:])
	}
	is := rijndael.InvSbox()
	words := make([]uint32, 256)
	for i, v := range is {
		words[i] = uint32(v)
	}
	mem.WriteUint32s(ctx+aesSbox, words)
	r, err := rijndael.New(key)
	if err != nil {
		return err
	}
	mem.WriteUint32s(ctx+aesRK, r.DecRoundKeys())
	mem.WriteBytes(ctx+aesKey, key)
	if iv != nil {
		mem.WriteBytes(ctx+aesIV, iv)
	}
	return nil
}

// buildRijndaelDec mirrors the encryption kernel with the inverse
// ShiftRows byte sourcing (word j takes lanes from j, j+3, j+2, j+1) and
// CBC unchaining.
func buildRijndaelDec(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("rijndael-dec-"+feat.String(), feat)
	td := [4]isa.Reg{isa.R4, isa.R5, isa.R6, isa.R7}
	sb := isa.R8
	s := [4]isa.Reg{isa.R9, isa.R10, isa.R11, isa.R12}
	u := [4]isa.Reg{isa.R13, isa.R14, isa.R15, isa.R22}
	iv := [4]isa.Reg{isa.R23, isa.R24, isa.R25, isa.R27}
	acc, t, rk := isa.R0, isa.R1, isa.R2

	for i, r := range td {
		b.LDA(r, int64(1024*i), isa.RA3)
	}
	b.LDA(sb, aesSbox, isa.RA3)
	b.LDA(rk, aesRK, isa.RA3)
	for i, r := range iv {
		b.LDL(r, aesIV+int64(4*i), isa.RA3)
	}
	b.BEQ(isa.RA2, "done")

	b.Label("loop")
	for i := 0; i < 4; i++ {
		b.LDL(s[i], int64(4*i), isa.RA0)
		b.LDL(t, int64(4*i), rk)
		b.XOR(s[i], t, s[i])
	}
	cur, nxt := s, u
	for round := 1; round < 10; round++ {
		for w := 0; w < 4; w++ {
			b.SBoxLookup(0, 0, td[0], cur[w], acc, acc, false)
			b.SBoxLookup(1, 1, td[1], cur[(w+3)%4], t, t, false)
			b.XOR(acc, t, acc)
			b.SBoxLookup(2, 2, td[2], cur[(w+2)%4], t, t, false)
			b.XOR(acc, t, acc)
			b.SBoxLookup(3, 3, td[3], cur[(w+1)%4], t, t, false)
			b.XOR(acc, t, acc)
			b.LDL(t, int64(16*round+4*w), rk)
			b.XOR(acc, t, nxt[w])
		}
		cur, nxt = nxt, cur
	}
	// Final round: inverse S-box, inverse ShiftRows, last round key, then
	// the CBC unchain; the IV becomes this ciphertext block.
	for w := 0; w < 4; w++ {
		b.SBoxLookup(4, 0, sb, cur[w], acc, acc, false)
		b.SBoxLookup(4, 1, sb, cur[(w+3)%4], t, t, false)
		b.SLLLI(t, 8, t)
		b.OR(acc, t, acc)
		b.SBoxLookup(4, 2, sb, cur[(w+2)%4], t, t, false)
		b.SLLLI(t, 16, t)
		b.OR(acc, t, acc)
		b.SBoxLookup(4, 3, sb, cur[(w+1)%4], t, t, false)
		b.SLLLI(t, 24, t)
		b.OR(acc, t, acc)
		b.LDL(t, int64(160+4*w), rk)
		b.XOR(acc, t, acc)
		b.XOR(acc, iv[w], acc)
		b.STL(acc, int64(4*w), isa.RA1)
		b.LDL(iv[w], int64(4*w), isa.RA0)
	}

	b.ADDQI(isa.RA0, 16, isa.RA0)
	b.ADDQI(isa.RA1, 16, isa.RA1)
	b.SUBQI(isa.RA2, 16, isa.RA2)
	b.BGT(isa.RA2, "loop")

	b.Label("done")
	for i, r := range iv {
		b.STL(r, aesIV+int64(4*i), isa.RA3)
	}
	b.HALT()
	return b.Build()
}

func buildRijndael(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("rijndael-"+feat.String(), feat)
	// Register plan.
	te := [4]isa.Reg{isa.R4, isa.R5, isa.R6, isa.R7}
	sb := isa.R8
	s := [4]isa.Reg{isa.R9, isa.R10, isa.R11, isa.R12}  // state
	u := [4]isa.Reg{isa.R13, isa.R14, isa.R15, isa.R22} // next state
	iv := [4]isa.Reg{isa.R23, isa.R24, isa.R25, isa.R27}
	acc, t, rk := isa.R0, isa.R1, isa.R2

	for i, r := range te {
		b.LDA(r, int64(1024*i), isa.RA3)
	}
	b.LDA(sb, aesSbox, isa.RA3)
	b.LDA(rk, aesRK, isa.RA3)
	for i, r := range iv {
		b.LDL(r, aesIV+int64(4*i), isa.RA3)
	}
	b.BEQ(isa.RA2, "done")

	b.Label("loop")
	// Load plaintext, fold in the IV (CBC) and round key 0.
	for i := 0; i < 4; i++ {
		b.LDL(s[i], int64(4*i), isa.RA0)
		b.XOR(s[i], iv[i], s[i])
		b.LDL(t, int64(4*i), rk)
		b.XOR(s[i], t, s[i])
	}

	// Nine T-table rounds. Roles alternate between s and u.
	cur, nxt := s, u
	for round := 1; round < 10; round++ {
		for w := 0; w < 4; w++ {
			b.SBoxLookup(0, 0, te[0], cur[w], acc, acc, false)
			b.SBoxLookup(1, 1, te[1], cur[(w+1)%4], t, t, false)
			b.XOR(acc, t, acc)
			b.SBoxLookup(2, 2, te[2], cur[(w+2)%4], t, t, false)
			b.XOR(acc, t, acc)
			b.SBoxLookup(3, 3, te[3], cur[(w+3)%4], t, t, false)
			b.XOR(acc, t, acc)
			b.LDL(t, int64(16*round+4*w), rk)
			b.XOR(acc, t, nxt[w])
		}
		cur, nxt = nxt, cur
	}

	// Final round: S-box, ShiftRows, round key; result becomes the new IV
	// and the stored ciphertext.
	for w := 0; w < 4; w++ {
		// Byte lanes 0..3 come from words w, w+1, w+2, w+3.
		b.SBoxLookup(4, 0, sb, cur[w], acc, acc, false)
		b.SBoxLookup(4, 1, sb, cur[(w+1)%4], t, t, false)
		b.SLLLI(t, 8, t)
		b.OR(acc, t, acc)
		b.SBoxLookup(4, 2, sb, cur[(w+2)%4], t, t, false)
		b.SLLLI(t, 16, t)
		b.OR(acc, t, acc)
		b.SBoxLookup(4, 3, sb, cur[(w+3)%4], t, t, false)
		b.SLLLI(t, 24, t)
		b.OR(acc, t, acc)
		b.LDL(t, int64(160+4*w), rk)
		b.XOR(acc, t, iv[w])
		b.STL(iv[w], int64(4*w), isa.RA1)
	}

	b.ADDQI(isa.RA0, 16, isa.RA0)
	b.ADDQI(isa.RA1, 16, isa.RA1)
	b.SUBQI(isa.RA2, 16, isa.RA2)
	b.BGT(isa.RA2, "loop")

	b.Label("done")
	for i, r := range iv {
		b.STL(r, aesIV+int64(4*i), isa.RA3)
	}
	b.HALT()
	return b.Build()
}

// buildRijndaelSetup expands the 16-byte key into 44 round-key words using
// the S-box table (SubWord), RotWord and the round constants.
func buildRijndaelSetup(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("rijndael-setup-"+feat.String(), feat)
	sb, rk := isa.R8, isa.R2
	tcur, t, t2, acc := isa.R9, isa.R1, isa.R10, isa.R0
	rcon, cnt, i4 := isa.R11, isa.R12, isa.R13
	prev4 := isa.R14
	x1b := isa.R15

	b.LDA(sb, aesSbox, isa.RA3)
	b.LDA(rk, aesRK, isa.RA3)
	// rk[0..3] = raw key words.
	for i := 0; i < 4; i++ {
		b.LDL(t, aesKey+int64(4*i), isa.RA3)
		b.STL(t, int64(4*i), rk)
	}
	b.LDL(tcur, aesKey+12, isa.RA3) // t = rk[3]
	b.LDA(rcon, 1, isa.RZ)
	b.LoadImm32(x1b, 0x11b)
	b.LoadImm(cnt, 40)
	b.LDA(i4, 16, rk) // address of rk[i]
	b.LDA(prev4, 0, rk)

	b.Label("expand")
	// If i % 4 == 0: t = SubWord(RotWord(t)) ^ rcon; rcon = xtime(rcon).
	// i4 is a byte address; (i4 - rk) % 16 == 0 detects word group starts.
	b.SUBQ(i4, rk, t2)
	b.ANDI(t2, 15, t2)
	b.BNE(t2, "noRot")
	// RotWord in the little-endian layout: t = t>>8 | t<<24.
	b.SRLLI(tcur, 8, t2)
	b.SLLLI(tcur, 24, t)
	b.OR(t2, t, tcur)
	// SubWord: four S-box lookups reassembled.
	b.SBoxLookup(4, 0, sb, tcur, acc, acc, false)
	b.SBoxLookup(4, 1, sb, tcur, t, t, false)
	b.SLLLI(t, 8, t)
	b.OR(acc, t, acc)
	b.SBoxLookup(4, 2, sb, tcur, t, t, false)
	b.SLLLI(t, 16, t)
	b.OR(acc, t, acc)
	b.SBoxLookup(4, 3, sb, tcur, t, t, false)
	b.SLLLI(t, 24, t)
	b.OR(acc, t, tcur)
	b.XOR(tcur, rcon, tcur)
	// rcon = xtime(rcon) in GF(2^8).
	b.ADDL(rcon, rcon, rcon)
	b.SRLLI(rcon, 8, t)
	b.BEQ(t, "noRed")
	b.XOR(rcon, x1b, rcon)
	b.ZEXTB(rcon, rcon)
	b.Label("noRed")
	b.Label("noRot")
	// rk[i] = rk[i-4] ^ t.
	b.LDL(t, 0, prev4)
	b.XOR(t, tcur, tcur)
	b.STL(tcur, 0, i4)
	b.ADDQI(i4, 4, i4)
	b.ADDQI(prev4, 4, prev4)
	b.SUBQI(cnt, 1, cnt)
	b.BGT(cnt, "expand")
	if feat.CryptoExt {
		b.SBOXSYNC(isa.SboxAll)
	}
	b.HALT()
	return b.Build()
}
