package emu

import (
	"slices"

	"cryptoarch/internal/isa"
)

// This file is the record/replay layer between the functional emulator and
// the timing model. The paper's methodology is replay-heavy: one dynamic
// instruction stream (per cipher x variant x session x seed) is timed on up
// to five machine models, so the stream is worth recording once, in a
// compact pointer-free encoding, and replaying many times without paying
// for functional execution again.

// Version identifies the functional-emulation semantics generation, the
// emu-side analogue of ooo.EngineVersion. The persistent result store
// hashes it into every result key: bump it on any change to emulated
// semantics (instruction behavior, record packing, commit-path selection)
// so results computed by older emulators become unreachable instead of
// silently serving stale numbers.
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

// TraceChunkRecs is how many records one trace chunk holds: 1 MB. A
// Trace keeps its records in chunks of this size, every one full but the
// last, which is cut to the records it holds; Record fills them in place,
// so a session costs its own records and no growth copies, and a replay
// hands out one chunk per Next.
const TraceChunkRecs = 1 << 16

// Trace is a recorded committed-path instruction stream: the program it
// was recorded from plus one packed record per retired instruction, held
// in TraceChunkRecs-record chunks. A Trace is immutable after Record
// returns and safe for any number of concurrent ReplayStreams. Nothing
// re-hashes it in memory: the harness pins by test that replay never
// writes a retained trace.
type Trace struct {
	Prog   *isa.Program
	chunks [][]TraceRec
	n      int // records over all chunks
}

// Len is the number of records in the trace.
func (t *Trace) Len() int { return t.n }

// Bytes is the retained size of the packed records.
func (t *Trace) Bytes() int { return TraceRecBytes * t.n }

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
// (max <= 0 means unbounded), packing the records into freshly allocated
// chunks. It returns the trace and whether the program ran to completion.
// On false the trace is a prefix and m is positioned exactly after the
// last recorded instruction, so Resume can continue it live. A machine
// that faults (m.Err() != nil — budget exceeded, runaway PC) reports
// complete == false; callers must consult m.Err() before retaining the
// truncated trace.
func Record(m *Machine, max int) (*Trace, bool) {
	t := &Trace{Prog: m.Prog}
	for max <= 0 || t.n < max {
		if m.Halted() {
			return t, m.Err() == nil
		}
		want := TraceChunkRecs
		if max > 0 {
			want = min(want, max-t.n)
		}
		c := m.StepPacked(make([]TraceRec, 0, want))
		if len(c) < want {
			// The machine stopped: keep the short last chunk at its
			// exact size, not a chunk's worth of capacity.
			if len(c) > 0 {
				t.chunks = append(t.chunks, slices.Clone(c))
				t.n += len(c)
			}
			return t, m.Err() == nil
		}
		t.chunks = append(t.chunks, c)
		t.n += len(c)
	}
	return t, false
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
// ooo.Stream: Next yields the remaining records one chunk at a time, each
// a sub-slice of the trace's immutable chunks, so replay copies and
// decodes nothing. Records carry no result values — value-prediction
// experiments must run the live emulator.
type ReplayStream struct {
	t        *Trace
	pos, end int // next record to deliver, one past the last
}

// Stream starts a fresh replay of the trace.
func (t *Trace) Stream() *ReplayStream {
	return &ReplayStream{t: t, end: t.n}
}

// StreamAt starts a replay of the half-open record window [start, end).
// Interval sampling uses it to replay each window (warmup prefix plus
// measured body) over the shared immutable chunks. Bounds are clamped to
// the trace; an empty or inverted window yields an immediately exhausted
// stream.
func (t *Trace) StreamAt(start, end int) *ReplayStream {
	end = min(end, t.n)
	start = min(max(start, 0), end)
	return &ReplayStream{t: t, pos: start, end: end}
}

// Program is the static program the records index.
func (s *ReplayStream) Program() *isa.Program { return s.t.Prog }

// InstCount is the number of instructions the stream has yet to deliver;
// the timing engine reads it before the first Next to pre-size its
// in-flight ring.
func (s *ReplayStream) InstCount() int { return s.end - s.pos }

// Next implements the stream contract: the rest of the chunk holding the
// next record, cut at the window end, or false at end. The slice aliases
// the trace and must not be written.
func (s *ReplayStream) Next() ([]TraceRec, bool) {
	if s.pos >= s.end {
		return nil, false
	}
	c := s.t.chunks[s.pos/TraceChunkRecs]
	lo := s.pos % TraceChunkRecs
	recs := c[lo:min(len(c), lo+s.end-s.pos)]
	s.pos += len(recs)
	return recs, true
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
	return &ResumeStream{rs: *t.Stream(), m: m}
}

// Program is the static program the records index.
func (s *ResumeStream) Program() *isa.Program { return s.rs.t.Prog }

// Next implements the stream contract: the recorded prefix chunk by
// chunk, then batches of up to LiveBatchRecs live steps. A live batch is
// valid until the following Next call.
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
