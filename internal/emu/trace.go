package emu

import (
	"encoding/binary"
	"unsafe"

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
// the persistent store's trace payload format. RecBytes yields the same
// bytes without encoding where the host layout allows.
func EncodeTraceRec(b []byte, r *TraceRec) {
	binary.LittleEndian.PutUint64(b[:8], r.Addr)
	binary.LittleEndian.PutUint64(b[8:TraceRecBytes], uint64(r.Idx)|uint64(r.Br)<<32)
}

// DecodeTraceRec is the inverse of EncodeTraceRec.
func DecodeTraceRec(b []byte) TraceRec {
	w := binary.LittleEndian.Uint64(b[8:TraceRecBytes])
	return TraceRec{Addr: binary.LittleEndian.Uint64(b[:8]), Idx: uint32(w), Br: uint32(w >> 32)}
}

// hostLayout reports whether a TraceRec's bytes in memory are its
// EncodeTraceRec encoding: 16 bytes with no padding, fields in encoding
// order, little-endian. It holds on every little-endian target Go
// supports and is checked once, at init, on a probe record.
var hostLayout = func() bool {
	if unsafe.Sizeof(TraceRec{}) != TraceRecBytes {
		return false
	}
	probe := TraceRec{Addr: 0x0807060504030201, Idx: 0x0c0b0a09, Br: 0x100f0e0d}
	var enc [TraceRecBytes]byte
	EncodeTraceRec(enc[:], &probe)
	return *(*[TraceRecBytes]byte)(unsafe.Pointer(&probe)) == enc
}()

// RecBytes returns the EncodeTraceRec encoding of recs as a view of their
// own memory, with no copy, and true — on hosts whose layout is that
// encoding. Elsewhere it returns nil and false, and callers encode record
// by record. The view aliases recs: writing one writes the other.
func RecBytes(recs []TraceRec) ([]byte, bool) {
	if !hostLayout {
		return nil, false
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(recs))), len(recs)*TraceRecBytes), true
}

// Trace is a recorded committed-path instruction stream: the program it
// was recorded from plus one packed record per retired instruction. A
// Trace is immutable after Record returns and safe for any number of
// concurrent ReplayStreams. Nothing re-hashes it in memory: the harness
// pins by test that replay never writes a retained trace.
type Trace struct {
	Prog *isa.Program
	Recs []TraceRec
}

// Bytes is the retained size of the packed records.
func (t *Trace) Bytes() int { return TraceRecBytes * len(t.Recs) }

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

// Taken reports a branch record's direction (false for non-branches).
func (r TraceRec) Taken() bool { return r.Br&1 != 0 }

// Target is a branch record's target instruction index (0 for
// non-branches).
func (r TraceRec) Target() int { return int(r.Br >> 1) }

// maxPackedTarget is the largest branch target a record can hold. Only a
// RET through a corrupted register can exceed it; the machine then faults
// on its next step, so pack clamps the target to this value — which lies
// outside every program — rather than panic mid-stream.
const maxPackedTarget = 1 << 30

// pack encodes the dynamic half of one retired-instruction record.
func pack(r *Rec) TraceRec {
	pr := TraceRec{Addr: r.Addr, Idx: uint32(r.Idx)}
	if r.Taken || r.Targ != 0 {
		targ := uint(r.Targ)
		if targ > maxPackedTarget {
			targ = maxPackedTarget
		}
		pr.Br = uint32(targ) << 1
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

// LiveBatchRecs is how many instructions a live stream steps and packs per
// Next call: 4 KB of records, enough to amortize the call.
const LiveBatchRecs = 256

// StepPacked steps m until buf is full (len == cap) or the machine stops,
// appending each retired instruction in Record's packed form, and returns
// the extended slice. It is how live streams feed the timing engine the
// same records a replay does.
func (m *Machine) StepPacked(buf []TraceRec) []TraceRec {
	for len(buf) < cap(buf) {
		r := m.Step()
		if r == nil {
			break
		}
		buf = append(buf, pack(r))
	}
	return buf
}

// ReplayStream hands a Trace's records to the timing model. It satisfies
// ooo.Stream: Next yields the remaining records as one sub-slice of the
// trace's immutable slab, so replay copies and decodes nothing. Records
// carry no result values — value-prediction experiments must run the live
// emulator.
type ReplayStream struct {
	prog *isa.Program
	recs []TraceRec
}

// Stream starts a fresh replay of the trace.
func (t *Trace) Stream() *ReplayStream {
	return &ReplayStream{prog: t.Prog, recs: t.Recs}
}

// StreamAt starts a replay of the half-open record window [start, end).
// Interval sampling uses it to replay each window (warmup prefix plus
// measured body) over the shared immutable record slab. Bounds are
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

// Program is the static program the records index.
func (s *ReplayStream) Program() *isa.Program { return s.prog }

// InstCount is the number of instructions the stream has yet to deliver;
// the timing engine reads it before the first Next to pre-size its
// in-flight ring.
func (s *ReplayStream) InstCount() int { return len(s.recs) }

// Next implements the stream contract: every remaining record at once, or
// false at end. The slice aliases the trace and must not be written.
func (s *ReplayStream) Next() ([]TraceRec, bool) {
	recs := s.recs
	s.recs = nil
	return recs, len(recs) > 0
}

// ResumeStream replays a recorded prefix and then continues stepping the
// machine the prefix was recorded from — the overflow path for sessions
// too long to be worth retaining as a full trace. The emulation still runs
// exactly once; the stream is single-use.
type ResumeStream struct {
	rs  ReplayStream
	m   *Machine
	buf []TraceRec // live batch, reused across Next calls
}

// Resume builds a stream over the (partial) trace followed by live
// execution of m, which must be the machine Record stopped in.
func (t *Trace) Resume(m *Machine) *ResumeStream {
	return &ResumeStream{rs: ReplayStream{prog: t.Prog, recs: t.Recs}, m: m}
}

// Program is the static program the records index.
func (s *ResumeStream) Program() *isa.Program { return s.rs.prog }

// Next implements the stream contract: the recorded prefix, then batches
// of up to LiveBatchRecs live steps. A live batch is valid until the
// following Next call.
func (s *ResumeStream) Next() ([]TraceRec, bool) {
	if recs, ok := s.rs.Next(); ok {
		return recs, true
	}
	if s.buf == nil {
		s.buf = make([]TraceRec, 0, LiveBatchRecs)
	}
	s.buf = s.m.StepPacked(s.buf[:0])
	return s.buf, len(s.buf) > 0
}

// Err surfaces a terminal fault of the live machine behind the stream, so
// a budget-exceeded resume run fails the timing engine instead of
// silently truncating the session.
func (s *ResumeStream) Err() error { return s.m.Err() }
