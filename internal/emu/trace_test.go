package emu_test

import (
	"testing"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
)

// newPair builds two identical machines over a real kernel so one can be
// recorded and the other stepped live for comparison.
func newPair(t testing.TB, name string, feat isa.Feature, session int) (*emu.Machine, *emu.Machine) {
	t.Helper()
	k, err := kernels.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 16)
	iv := make([]byte, 8)
	pt := make([]byte, session)
	for i := range pt {
		pt[i] = byte(i*7 + 1)
	}
	a, _, err := kernels.NewRun(k, feat, key, iv, pt)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := kernels.NewRun(k, feat, key, iv, pt)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// sameRec compares a live step with a packed record over every fact the
// timing model consumes: the record's PC, effective address and branch
// outcome must match, and the static facts the engine recovers from the
// program by PC — the instruction and its access size — must be the ones
// the live step executed. Val is deliberately excluded: traces do not
// record result values (only the value-prediction experiments need them,
// and those run live). The program is compared by value because the
// machines hold independently built (identical) programs.
func sameRec(live *emu.Rec, prog *isa.Program, pr emu.TraceRec) bool {
	return live.Idx == int(pr.Idx) && *live.Inst == prog.Code[pr.Idx] &&
		live.Size == isa.P(live.Inst.Op).Size && live.Addr == pr.Addr &&
		live.Taken == pr.Taken() && live.Targ == pr.Target()
}

// drain collects every record a stream delivers, in order.
func drain(t testing.TB, s interface{ Next() ([]emu.TraceRec, bool) }) []emu.TraceRec {
	t.Helper()
	var out []emu.TraceRec
	for {
		recs, ok := s.Next()
		if !ok {
			return out
		}
		if len(recs) == 0 {
			t.Fatal("stream delivered an empty batch")
		}
		out = append(out, recs...)
	}
}

// matchLive steps lm to completion and checks its records against recs,
// reporting the first mismatch.
func matchLive(t *testing.T, lm *emu.Machine, prog *isa.Program, recs []emu.TraceRec) {
	t.Helper()
	n := 0
	for {
		lr := lm.Step()
		if lr == nil || n == len(recs) {
			if lr != nil || n != len(recs) {
				t.Fatalf("length mismatch at %d: live ended=%v stream ended=%v", n, lr == nil, n == len(recs))
			}
			return
		}
		if !sameRec(lr, prog, recs[n]) {
			t.Fatalf("rec %d mismatch:\nlive   %+v\nstream %+v", n, *lr, recs[n])
		}
		n++
	}
}

// TestReplayMatchesLive records a trace and checks the replayed record
// sequence is field-identical to stepping a fresh machine.
func TestReplayMatchesLive(t *testing.T) {
	for _, name := range []string{"blowfish", "rc4", "idea"} {
		t.Run(name, func(t *testing.T) {
			rm, lm := newPair(t, name, isa.FeatRot, 256)
			tr, done := emu.Record(rm, 0, nil)
			if !done {
				t.Fatal("unbounded Record reported an incomplete run")
			}
			if len(tr.Recs) == 0 {
				t.Fatal("empty trace")
			}
			if tr.Bytes() != emu.TraceRecBytes*len(tr.Recs) {
				t.Fatalf("Bytes() = %d, want %d", tr.Bytes(), emu.TraceRecBytes*len(tr.Recs))
			}
			s := tr.Stream()
			if s.InstCount() != len(tr.Recs) {
				t.Fatalf("InstCount = %d, want %d", s.InstCount(), len(tr.Recs))
			}
			if s.Program() != tr.Prog {
				t.Fatal("replay stream does not expose the trace's program")
			}
			if first, _ := tr.Stream().Next(); &first[0] != &tr.Recs[0] {
				t.Fatal("replay copied the trace instead of handing out its slab")
			}
			recs := drain(t, s)
			if len(recs) != len(tr.Recs) {
				t.Fatalf("replayed %d recs, trace holds %d", len(recs), len(tr.Recs))
			}
			matchLive(t, lm, tr.Prog, recs)
		})
	}
}

// TestPartialRecordResume records only a prefix and checks Resume delivers
// the identical full stream (replayed prefix + live continuation).
func TestPartialRecordResume(t *testing.T) {
	rm, lm := newPair(t, "blowfish", isa.FeatRot, 256)
	const max = 1000
	tr, done := emu.Record(rm, max, nil)
	if done {
		t.Fatal("expected a truncated record for this session length")
	}
	if len(tr.Recs) != max {
		t.Fatalf("prefix length %d, want %d", len(tr.Recs), max)
	}
	s := tr.Resume(rm)
	recs := drain(t, s)
	matchLive(t, lm, tr.Prog, recs)
	if len(recs) <= max {
		t.Fatalf("resume delivered only %d recs, expected more than the %d-rec prefix", len(recs), max)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("resume faulted: %v", err)
	}
}

// TestRecordReusesBuffer pins the record-into-reusable-buffer contract:
// a buffer with enough capacity is not reallocated.
func TestRecordReusesBuffer(t *testing.T) {
	rm, _ := newPair(t, "rc4", isa.FeatNoRot, 64)
	tr, _ := emu.Record(rm, 0, nil)
	buf := tr.Recs[:0]
	rm2, _ := newPair(t, "rc4", isa.FeatNoRot, 64)
	tr2, done := emu.Record(rm2, 0, buf)
	if !done {
		t.Fatal("second record incomplete")
	}
	if &tr2.Recs[0] != &tr.Recs[0] {
		t.Fatal("Record reallocated a buffer that had sufficient capacity")
	}
}

// refTrace records the complete blowfish stream once for comparison.
func refTrace(t testing.TB, session int) *emu.Trace {
	t.Helper()
	rm, _ := newPair(t, "blowfish", isa.FeatRot, session)
	tr, done := emu.Record(rm, 0, nil)
	if !done {
		t.Fatal("reference record incomplete")
	}
	return tr
}

// TestStreamAt pins the sampling-window contract: StreamAt(s,e) delivers
// exactly the records of the full stream's [s,e) window, and bounds are
// clamped rather than panicking.
func TestStreamAt(t *testing.T) {
	tr := refTrace(t, 128)
	n := len(tr.Recs)
	full := drain(t, tr.Stream())
	windows := [][2]int{{0, n}, {0, 1}, {1, n}, {n / 3, 2 * n / 3}, {n - 1, n}, {n, n}}
	for _, w := range windows {
		s := tr.StreamAt(w[0], w[1])
		if got, want := s.InstCount(), w[1]-w[0]; got != want {
			t.Fatalf("window %v: InstCount %d, want %d", w, got, want)
		}
		got := drain(t, s)
		if len(got) != w[1]-w[0] {
			t.Fatalf("window %v: stream delivered %d records, want %d", w, len(got), w[1]-w[0])
		}
		for i, r := range got {
			if r != full[w[0]+i] {
				t.Fatalf("window %v rec %d mismatch:\nwindow %+v\nfull   %+v", w, w[0]+i, r, full[w[0]+i])
			}
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("window %v: stream overruns its end", w)
		}
	}
	// Clamped forms: negative start, end past the trace, inverted window.
	if tr.StreamAt(-5, n+5).InstCount() != n {
		t.Fatal("out-of-range window not clamped to the trace")
	}
	if tr.StreamAt(10, 5).InstCount() != 0 {
		t.Fatal("inverted window not clamped to empty")
	}
}
