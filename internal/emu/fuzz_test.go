package emu

import (
	"bytes"
	"encoding/binary"
	"testing"

	"cryptoarch/internal/check"
	"cryptoarch/internal/isa"
)

// fuzzProg is a five-instruction program covering every record shape the
// trace decoder distinguishes: arithmetic, load, store, branch, halt.
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

// FuzzTraceDecode throws arbitrary packed records at Trace.Validate and
// the replay stream: Validate must reject every structurally broken
// record, and every record it accepts must replay unchanged and carry
// only the dynamic facts its static instruction can have.
func FuzzTraceDecode(f *testing.F) {
	prog := fuzzProg()
	f.Add(uint64(0x20000), uint32(1), uint32(0)) // well-formed load
	f.Add(uint64(0), uint32(3), uint32(7))       // taken branch
	f.Add(uint64(5), uint32(99), uint32(1))      // PC out of range
	f.Add(uint64(1), uint32(0), uint32(0))       // address on an arith op
	f.Fuzz(func(t *testing.T, addr uint64, idx uint32, br uint32) {
		tr := &Trace{Prog: prog, Recs: []TraceRec{{Addr: addr, Idx: idx, Br: br}}}
		err := tr.Validate()
		if int(idx) >= len(prog.Code) {
			if err == nil {
				t.Fatalf("Validate accepted out-of-range PC %d", idx)
			}
			if _, ok := check.AsViolation(err); !ok {
				t.Fatalf("Validate error %v is not a check.Violation", err)
			}
			return
		}
		if err != nil {
			return // structurally rejected; nothing to replay
		}
		s := tr.Stream()
		if s.Program() != prog {
			t.Fatal("stream does not expose the trace's program")
		}
		recs, ok := s.Next()
		if !ok || len(recs) != 1 {
			t.Fatalf("validated stream delivered %d records, want 1", len(recs))
		}
		r := recs[0]
		if r != (TraceRec{Addr: addr, Idx: idx, Br: br}) {
			t.Fatalf("replay altered the record: %+v", r)
		}
		p := isa.P(prog.Code[r.Idx].Op)
		if !p.Mem && r.Addr != 0 {
			t.Fatalf("accepted address %#x on non-memory %s", r.Addr, p.Name)
		}
		if !p.Branch && (r.Taken() || r.Target() != 0) {
			t.Fatalf("accepted branch outcome %#x on non-branch %s", r.Br, p.Name)
		}
		if p.Branch && (r.Taken() != (br&1 != 0) || r.Target() != int(br>>1) || r.Target() >= len(prog.Code)) {
			t.Fatalf("branch record decoded taken=%v targ=%d from br=%#x", r.Taken(), r.Target(), br)
		}
		if _, ok := s.Next(); ok {
			t.Fatal("stream delivered a second record")
		}
	})
}

// FuzzPackRoundTrip drives live records through pack and back out of a
// replay stream, asserting the dynamic facts survive unchanged, the static
// ones are recoverable from the program, and the packed form passes
// Validate.
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
		tr := &Trace{Prog: prog, Recs: []TraceRec{pr}}
		if err := tr.Validate(); err != nil {
			t.Fatalf("packed live record fails Validate: %v", err)
		}
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

// sumRecs is check.NewSum64 over the records' EncodeTraceRec encoding:
// the sum the store writes into a trace entry's header.
func sumRecs(recs []TraceRec) uint64 {
	enc := make([]byte, len(recs)*TraceRecBytes)
	for i := range recs {
		EncodeTraceRec(enc[i*TraceRecBytes:], &recs[i])
	}
	h := check.NewSum64()
	h.Write(enc)
	return h.Sum64()
}

// TestSum64DetectsRecordDamage pins what the store's payload sum sees of a
// trace: any single-bit flip in any record field, and any burst of 1-32
// bits anywhere in the encoded trace, changes check.NewSum64 of the
// encoding, and equal traces agree.
func TestSum64DetectsRecordDamage(t *testing.T) {
	recs := []TraceRec{
		{Addr: 0x20000, Idx: 1},
		{Addr: 0, Idx: 3, Br: 7},
		{Addr: 0x300010, Idx: 2},
	}
	sum := sumRecs(recs)
	cp := append([]TraceRec(nil), recs...)
	if sumRecs(cp) != sum {
		t.Fatal("sum differs between equal traces")
	}
	in := check.NewInjector(42)
	for trial := 0; trial < 64; trial++ {
		i := in.Intn(len(cp))
		switch in.Intn(3) {
		case 0:
			cp[i].Addr, _ = in.FlipBit64(cp[i].Addr)
		case 1:
			v, _ := in.FlipBit64(uint64(cp[i].Idx) | uint64(cp[i].Br)<<32)
			cp[i].Idx, cp[i].Br = uint32(v), uint32(v>>32)
		case 2:
			cp[i].Br ^= 1 << uint(in.Intn(32))
		}
		if sumRecs(cp) == sum {
			t.Fatalf("trial %d: bit flip not reflected in the sum", trial)
		}
		copy(cp, recs) // restore
	}

	// Bursts: flip a run of 1-32 bits (first and last set, the middle
	// random) of the encoding. Each CRC half detects every such burst, so
	// none may go unseen. Bit k of the stream is bit k%8 of byte k/8, the
	// order both reflected CRCs consume; every third burst is placed
	// across a record seam.
	long := make([]TraceRec, 515)
	for i := range long {
		long[i] = TraceRec{Addr: in.Uint64(), Idx: uint32(in.Intn(1 << 20)), Br: uint32(in.Uint64())}
	}
	enc := make([]byte, len(long)*TraceRecBytes)
	for i := range long {
		EncodeTraceRec(enc[i*TraceRecBytes:], &long[i])
	}
	sumEnc := func() uint64 {
		h := check.NewSum64()
		h.Write(enc)
		return h.Sum64()
	}
	base := sumEnc()
	flip := func(start int, pattern uint64, width int) {
		for k := 0; k < width; k++ {
			if pattern>>k&1 != 0 {
				enc[(start+k)/8] ^= 1 << ((start + k) % 8)
			}
		}
	}
	const recBits = 8 * TraceRecBytes
	for trial := 0; trial < 3000; trial++ {
		width := 1 + in.Intn(32)
		pattern := uint64(1) | uint64(1)<<(width-1) | in.Uint64()&(1<<width-1)
		start := in.Intn(len(enc)*8 - width + 1)
		if trial%3 == 0 {
			start = recBits*(1+in.Intn(len(long)-1)) - 1 - in.Intn(width)
		}
		flip(start, pattern, width)
		if sumEnc() == base {
			t.Fatalf("trial %d: %d-bit burst %#x at bit %d not reflected in the sum", trial, width, pattern, start)
		}
		flip(start, pattern, width) // restore
	}
	if sumEnc() != base {
		t.Fatal("encoding did not round-trip after restoring every burst")
	}
}

// TestRecBytesIsEncoding pins the in-place view RecBytes, which every
// little-endian host must have, to the records' EncodeTraceRec encoding:
// the store writes the view as a trace payload. DecodeTraceRec, the load
// path on other hosts, must invert the encoding.
func TestRecBytesIsEncoding(t *testing.T) {
	if _, ok := RecBytes(nil); !ok && binary.NativeEndian.Uint16([]byte{1, 0}) == 1 {
		t.Fatal("little-endian host has no in-place record view")
	}
	in := check.NewInjector(5)
	for _, n := range []int{0, 1, 255, 256, 515} {
		recs := make([]TraceRec, n)
		enc := make([]byte, n*TraceRecBytes)
		for i := range recs {
			recs[i] = TraceRec{Addr: in.Uint64(), Idx: uint32(in.Uint64()), Br: uint32(in.Uint64())}
			EncodeTraceRec(enc[i*TraceRecBytes:], &recs[i])
			if got := DecodeTraceRec(enc[i*TraceRecBytes:]); got != recs[i] {
				t.Fatalf("rec %+v decodes as %+v", recs[i], got)
			}
		}
		if view, ok := RecBytes(recs); ok && !bytes.Equal(view, enc) {
			t.Fatalf("n=%d: record view differs from the EncodeTraceRec encoding", n)
		}
	}
}
