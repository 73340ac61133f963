package emu

import (
	"encoding/binary"
	"fmt"
	"sync"

	"cryptoarch/internal/check"
	"cryptoarch/internal/isa"
)

// This file is the record/replay layer between the functional emulator and
// the timing model. The paper's methodology is replay-heavy: one dynamic
// instruction stream (per cipher x variant x session x seed) is timed on up
// to five machine models, so the stream is worth recording once, in a
// compact pointer-free encoding, and replaying many times without paying
// for functional execution again.

// Version identifies the functional-emulation semantics generation, the
// emu-side analogue of ooo.EngineVersion. The persistent trace store hashes
// it into every trace key: bump it on any change to recorded-stream
// semantics (instruction behavior, record packing, commit-path selection)
// so traces recorded by older emulators become unreachable instead of
// silently replaying stale dynamics.
const Version = "emu-v1"

// TraceRec is one packed retired instruction: 16 bytes, no pointers. Only
// the dynamic facts the timing model consumes are stored — the effective
// address of memory operations and the outcome of branches. Everything
// else about the instruction is static and recovered from the program by
// index at replay time.
type TraceRec struct {
	Addr uint64 // effective address (memory operations; else 0)
	Idx  uint32 // static instruction index (PC)
	Br   uint32 // branches: target<<1 | taken; else 0
}

// TraceRecBytes is the packed size of one record.
const TraceRecBytes = 16

// EncodeTraceRec writes r's TraceRecBytes-byte encoding into b: Addr as a
// little-endian uint64, then Idx | Br<<32 as a little-endian uint64. It is
// the persistent store's trace payload format and the byte sequence
// ChecksumRecs sums, so one sum serves the trace on disk and in memory.
func EncodeTraceRec(b []byte, r *TraceRec) {
	binary.LittleEndian.PutUint64(b[:8], r.Addr)
	binary.LittleEndian.PutUint64(b[8:TraceRecBytes], uint64(r.Idx)|uint64(r.Br)<<32)
}

// DecodeTraceRec is the inverse of EncodeTraceRec.
func DecodeTraceRec(b []byte) TraceRec {
	w := binary.LittleEndian.Uint64(b[8:TraceRecBytes])
	return TraceRec{Addr: binary.LittleEndian.Uint64(b[:8]), Idx: uint32(w), Br: uint32(w >> 32)}
}

// Trace is a recorded committed-path instruction stream: the program it
// was recorded from plus one packed record per retired instruction. A
// Trace is immutable after Record returns and safe for any number of
// concurrent ReplayStreams.
type Trace struct {
	Prog *isa.Program
	Recs []TraceRec
}

// Bytes is the retained size of the packed records.
func (t *Trace) Bytes() int { return TraceRecBytes * len(t.Recs) }

// ChecksumBatchRecs is how many records ChecksumRecs encodes into its
// buffer per sum update: 4 KB, long enough for the CRC instructions to run
// at full width.
const ChecksumBatchRecs = 256

// sumBufs recycles ChecksumRecs's encode buffer. hash/crc32 dispatches
// through function values, so escape analysis cannot keep a local array on
// the stack, and a fresh one would cost an allocation per replay request.
var sumBufs = sync.Pool{New: func() any { return new([ChecksumBatchRecs * TraceRecBytes]byte) }}

// ChecksumRecs returns check.NewSum64 of the records' EncodeTraceRec
// encoding — the same value the persistent store computes over a trace
// payload. The trace cache stores it at record time (or takes it from the
// store's verified header at fault-in) and checks the retained records
// against it: on every serial stream request, and on the first and every
// 64th traceFor request of the sampled and chunked paths. A bit flipped in
// a retained trace (memory corruption, a stray write through a stale
// slice) is thus caught before it silently skews a timing run.
func ChecksumRecs(recs []TraceRec) uint64 {
	buf := sumBufs.Get().(*[ChecksumBatchRecs * TraceRecBytes]byte)
	defer sumBufs.Put(buf)
	h := check.NewSum64()
	for len(recs) > 0 {
		n := min(len(recs), ChecksumBatchRecs)
		b := buf[:n*TraceRecBytes]
		for i := range recs[:n] {
			EncodeTraceRec(b[i*TraceRecBytes:(i+1)*TraceRecBytes], &recs[i])
		}
		h.Write(b)
		recs = recs[n:]
	}
	return h.Sum64()
}

// Checksum is ChecksumRecs over the trace's records.
func (t *Trace) Checksum() uint64 { return ChecksumRecs(t.Recs) }

// Validate structurally checks the trace against its program: every
// record must index a real instruction, branch outcomes may only appear
// on branches, and branch targets must stay inside the program. A valid
// trace is safe to replay; Validate is the decode-side guard fuzzed in
// fuzz_test.go and is how corrupted traces fail loudly instead of
// replaying garbage.
func (t *Trace) Validate() error {
	n := len(t.Prog.Code)
	for i := range t.Recs {
		pr := &t.Recs[i]
		if int(pr.Idx) >= n {
			return check.Violationf("trace-decode", 0,
				"record %d: PC %d outside program %s [0,%d)", i, pr.Idx, t.Prog.Name, n)
		}
		p := isa.P(t.Prog.Code[pr.Idx].Op)
		if pr.Br != 0 {
			if !p.Branch {
				return check.Violationf("trace-decode", 0,
					"record %d: branch outcome %#x on non-branch %s at PC %d", i, pr.Br, p.Name, pr.Idx)
			}
			if targ := int(pr.Br >> 1); targ >= n {
				return check.Violationf("trace-decode", 0,
					"record %d: branch target %d outside program %s [0,%d)", i, targ, t.Prog.Name, n)
			}
		}
		if pr.Addr != 0 && !p.Mem {
			return check.Violationf("trace-decode", 0,
				"record %d: effective address %#x on non-memory %s at PC %d", i, pr.Addr, p.Name, pr.Idx)
		}
	}
	return nil
}

// pack encodes the dynamic half of one retired-instruction record.
func pack(r *Rec) TraceRec {
	pr := TraceRec{Addr: r.Addr, Idx: uint32(r.Idx)}
	if r.Taken || r.Targ != 0 {
		if uint(r.Targ) > 1<<30 {
			panic(fmt.Sprintf("emu: branch target %d not packable", r.Targ))
		}
		pr.Br = uint32(r.Targ) << 1
		if r.Taken {
			pr.Br |= 1
		}
	}
	return pr
}

// Record steps m until HALT or until max instructions have been recorded
// (max <= 0 means unbounded), appending packed records to buf (whose
// capacity is reused). It returns the trace and whether the program ran to
// completion. On false the trace is a prefix and m is positioned exactly
// after the last recorded instruction, so Resume can continue it live.
// A machine that faults (m.Err() != nil — budget exceeded, runaway PC)
// reports complete == false; callers must consult m.Err() before retaining
// the truncated trace.
func Record(m *Machine, max int, buf []TraceRec) (*Trace, bool) {
	for {
		if max > 0 && len(buf) >= max {
			return &Trace{Prog: m.Prog, Recs: buf}, false
		}
		r := m.Step()
		if r == nil {
			return &Trace{Prog: m.Prog, Recs: buf}, m.Err() == nil
		}
		buf = append(buf, pack(r))
	}
}

// ReplayStream decodes a Trace back into the retired-instruction records
// the timing model consumes. It satisfies ooo.Stream. The returned record
// is a reused scratch (the same contract as Machine.Step); its Val field
// is always zero — value-prediction experiments must run the live
// emulator.
type ReplayStream struct {
	prog *isa.Program
	recs []TraceRec
	pos  int
	rec  Rec
}

// Stream starts a fresh replay of the trace.
func (t *Trace) Stream() *ReplayStream {
	return &ReplayStream{prog: t.Prog, recs: t.Recs}
}

// StreamAt starts a replay of the half-open record window [start, end).
// Chunked replay uses it to hand each worker its own window (warmup prefix
// plus measured body) over the shared immutable record slab. Bounds are
// clamped to the trace; an empty or inverted window yields an immediately
// exhausted stream.
func (t *Trace) StreamAt(start, end int) *ReplayStream {
	if start < 0 {
		start = 0
	}
	if end > len(t.Recs) {
		end = len(t.Recs)
	}
	if start > end {
		start = end
	}
	return &ReplayStream{prog: t.Prog, recs: t.Recs[start:end]}
}

// InstCount is the total number of instructions the stream will deliver;
// the timing engine uses it to pre-size its in-flight ring.
func (s *ReplayStream) InstCount() int { return len(s.recs) }

// Next implements the stream contract: the next retired instruction, or
// false at end. The pointer is valid until the following Next call.
func (s *ReplayStream) Next() (*Rec, bool) {
	if s.pos >= len(s.recs) {
		return nil, false
	}
	pr := &s.recs[s.pos]
	s.pos++
	inst := &s.prog.Code[pr.Idx]
	r := &s.rec
	*r = Rec{Idx: int(pr.Idx), Inst: inst}
	p := isa.P(inst.Op)
	if p.Mem {
		r.Addr, r.Size = pr.Addr, p.Size
	} else if p.Branch {
		r.Taken = pr.Br&1 != 0
		r.Targ = int(pr.Br >> 1)
	}
	return r, true
}

// ResumeStream replays a recorded prefix and then continues stepping the
// machine the prefix was recorded from — the overflow path for sessions
// too long to be worth retaining as a full trace. The emulation still runs
// exactly once; the stream is single-use.
type ResumeStream struct {
	rs ReplayStream
	m  *Machine
}

// Resume builds a stream over the (partial) trace followed by live
// execution of m, which must be the machine Record stopped in.
func (t *Trace) Resume(m *Machine) *ResumeStream {
	return &ResumeStream{rs: ReplayStream{prog: t.Prog, recs: t.Recs}, m: m}
}

// Next implements the stream contract.
func (s *ResumeStream) Next() (*Rec, bool) {
	if r, ok := s.rs.Next(); ok {
		return r, true
	}
	r := s.m.Step()
	if r == nil {
		return nil, false
	}
	return r, true
}

// Err surfaces a terminal fault of the live machine behind the stream, so
// a budget-exceeded resume run fails the timing engine instead of
// silently truncating the session.
func (s *ResumeStream) Err() error { return s.m.Err() }

// ResumeAt builds a stream that replays records [start, len) of the trace
// and then continues live on m, which must be positioned exactly after the
// trace's last record (as Record leaves it, or a Snapshot of that machine
// materialized). This is the chunk-addressable form of Resume: the final
// chunk of an oversized trace replays only its own window of the recorded
// prefix before going live.
func (t *Trace) ResumeAt(m *Machine, start int) *ResumeStream {
	if start < 0 {
		start = 0
	}
	if start > len(t.Recs) {
		start = len(t.Recs)
	}
	return &ResumeStream{rs: ReplayStream{prog: t.Prog, recs: t.Recs[start:]}, m: m}
}
