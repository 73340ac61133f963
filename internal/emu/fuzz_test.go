package emu

import (
	"testing"

	"cryptoarch/internal/isa"
)

// fuzzProg is a five-instruction program covering every record shape pack
// produces: arithmetic, load, store, branch, halt.
func fuzzProg() *isa.Program {
	b := isa.NewBuilder("fuzzprog", isa.FeatRot)
	b.ADDQI(isa.RA0, 1, isa.RA0) // 0: arith
	b.LDQ(isa.RA1, 0, isa.RA3)   // 1: load
	b.STQ(isa.RA1, 0, isa.RA3)   // 2: store
	b.Label("loop")
	b.BNE(isa.RA0, "loop") // 3: branch
	b.HALT()               // 4
	return b.Build()
}

// FuzzPackRoundTrip drives live records through pack and back out of a
// replay stream, asserting the dynamic facts survive unchanged and the
// static ones are recoverable from the program.
func FuzzPackRoundTrip(f *testing.F) {
	prog := fuzzProg()
	f.Add(1, uint64(0x20010), true, 2)
	f.Add(3, uint64(0), false, 0)
	f.Add(0, uint64(0), false, 0)
	f.Fuzz(func(t *testing.T, idx int, addr uint64, taken bool, targ int) {
		n := len(prog.Code)
		if idx < 0 || idx >= n {
			return
		}
		inst := &prog.Code[idx]
		p := isa.P(inst.Op)
		r := Rec{Idx: idx, Inst: inst}
		if p.Mem {
			r.Addr, r.Size = addr, p.Size
		}
		if p.Branch {
			if targ < 0 || targ >= n {
				return
			}
			r.Taken, r.Targ = taken, targ
		}
		pr := pack(&r)
		tr := &Trace{Prog: prog, chunks: [][]TraceRec{{pr}}, n: 1}
		recs, ok := tr.Stream().Next()
		if !ok || len(recs) != 1 {
			t.Fatalf("round-trip stream delivered %d records, want 1", len(recs))
		}
		got := recs[0]
		if int(got.Idx) != r.Idx || &prog.Code[got.Idx] != r.Inst || got.Addr != r.Addr ||
			isa.P(prog.Code[got.Idx].Op).Size != r.Size || got.Taken() != r.Taken || got.Target() != r.Targ {
			t.Fatalf("round trip changed the record: %+v vs %+v", got, r)
		}
	})
}
