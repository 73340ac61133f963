// Customkernel: author a brand-new cipher kernel against the AXP64
// builder and measure how the paper's ISA extensions would serve a
// yet-to-be-invented algorithm — the generality argument of Section 7.
//
// The toy cipher is a 24-round ARX (add/rotate/xor) Feistel over a 64-bit
// block; it is not cryptographically reviewed and exists only to show the
// workflow: write a Go golden model, emit the kernel once against the
// macro layer, validate functionally, then time on the machine models.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/bits"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
	"cryptoarch/internal/simmem"
)

const rounds = 24

// golden is the reference model: l += k; r ^= rotl(l, 7); swap.
func golden(key [rounds]uint32, l, r uint32) (uint32, uint32) {
	for i := 0; i < rounds; i++ {
		l += key[i]
		r ^= bits.RotateLeft32(l, 7)
		l, r = r, l
	}
	return l, r
}

// build emits the kernel: encrypt len bytes from in to out with the round
// keys at ctx. One source, three ISA levels.
func build(feat isa.Feature) *isa.Program {
	b := isa.NewBuilder("arx-"+feat.String(), feat)
	kp, l, r, t, t2 := isa.R8, isa.R9, isa.R10, isa.R11, isa.R12
	b.MOV(isa.RA3, kp)
	b.BEQ(isa.RA2, "done")
	b.Label("loop")
	b.LDL(l, 0, isa.RA0)
	b.LDL(r, 4, isa.RA0)
	for i := 0; i < rounds; i++ {
		b.LDL(t, int64(4*i), kp)
		b.ADDL(l, t, l)
		// r ^= rotl(l, 7): one ROLX at the extended level, a rotate+XOR
		// with hardware rotates, four instructions otherwise.
		b.XorRotL32I(l, 7, r, t2)
		l, r = r, l
	}
	b.STL(l, 0, isa.RA1)
	b.STL(r, 4, isa.RA1)
	b.ADDQI(isa.RA0, 8, isa.RA0)
	b.ADDQI(isa.RA1, 8, isa.RA1)
	b.SUBQI(isa.RA2, 8, isa.RA2)
	b.BGT(isa.RA2, "loop")
	b.Label("done")
	b.HALT()
	return b.Build()
}

func main() {
	var key [rounds]uint32
	for i := range key {
		key[i] = 0x9e3779b9 * uint32(i+1)
	}
	const session = 4096
	plain := make([]byte, session)
	for i := range plain {
		plain[i] = byte(i * 31)
	}

	// Golden ciphertext.
	want := make([]byte, session)
	for off := 0; off < session; off += 8 {
		l := binary.LittleEndian.Uint32(plain[off:])
		r := binary.LittleEndian.Uint32(plain[off+4:])
		l, r = golden(key, l, r)
		binary.LittleEndian.PutUint32(want[off:], l)
		binary.LittleEndian.PutUint32(want[off+4:], r)
	}

	for _, feat := range []isa.Feature{isa.FeatNoRot, isa.FeatRot, isa.FeatOpt} {
		prog := build(feat)
		mem := simmem.New(0)
		const ctx, in, out = 0x20000, 0x100000, 0x300000
		for i, k := range key {
			mem.Store(ctx+uint64(4*i), 4, uint64(k))
		}
		mem.WriteBytes(in, plain)
		m := emu.New(prog, mem, 0x80000)
		m.SetArgs(in, out, session, ctx)
		insts := m.Run(nil)
		if got := mem.ReadBytes(out, session); string(got) != string(want) {
			log.Fatalf("%s: kernel does not match the golden model", feat)
		}

		// Fresh machine for the timing run (the emulator is single-shot).
		m = emu.New(build(feat), mem, 0x80000)
		m.SetArgs(in, out, session, ctx)
		eng := ooo.NewEngine(ooo.FourWide, &ooo.MachineStream{M: m})
		eng.WarmData(ctx, 4*rounds)
		eng.WarmCode(len(prog.Code))
		st, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("arx/%-6s validated; %6d insts, %6d cycles on 4W (%.2f bytes/1000 cycles)\n",
			feat, insts, st.Cycles, float64(session)*1000/float64(st.Cycles))
	}
}
