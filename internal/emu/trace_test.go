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
	key := make([]byte, k.KeyBytes)
	iv := make([]byte, max(k.BlockBytes, 8))
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
			tr, done := emu.Record(rm, 0)
			if !done {
				t.Fatal("unbounded Record reported an incomplete run")
			}
			if tr.Len() == 0 {
				t.Fatal("empty trace")
			}
			if tr.Bytes() != emu.TraceRecBytes*tr.Len() {
				t.Fatalf("Bytes() = %d, want %d", tr.Bytes(), emu.TraceRecBytes*tr.Len())
			}
			s := tr.Stream()
			if s.InstCount() != tr.Len() {
				t.Fatalf("InstCount = %d, want %d", s.InstCount(), tr.Len())
			}
			if s.Program() != tr.Prog {
				t.Fatal("replay stream does not expose the trace's program")
			}
			a, _ := tr.Stream().Next()
			b, _ := tr.Stream().Next()
			if &a[0] != &b[0] {
				t.Fatal("replay copied the trace instead of handing out its chunks")
			}
			recs := drain(t, s)
			if len(recs) != tr.Len() {
				t.Fatalf("replayed %d recs, trace holds %d", len(recs), tr.Len())
			}
			matchLive(t, lm, tr.Prog, recs)
		})
	}
}

// TestPartialRecordResume records only a prefix and checks Resume delivers
// the identical full stream (replayed prefix + live continuation): once
// inside the first chunk, and once with the prefix ending one record into
// a second chunk.
func TestPartialRecordResume(t *testing.T) {
	for _, c := range []struct{ session, max int }{{256, 1000}, {4096, emu.TraceChunkRecs + 1}} {
		rm, lm := newPair(t, "blowfish", isa.FeatRot, c.session)
		tr, done := emu.Record(rm, c.max)
		if done {
			t.Fatalf("%d B: expected a truncated record for this session length", c.session)
		}
		if tr.Len() != c.max {
			t.Fatalf("%d B: prefix length %d, want %d", c.session, tr.Len(), c.max)
		}
		s := tr.Resume(rm)
		recs := drain(t, s)
		matchLive(t, lm, tr.Prog, recs)
		if len(recs) <= c.max {
			t.Fatalf("%d B: resume delivered only %d recs, expected more than the %d-rec prefix", c.session, len(recs), c.max)
		}
		if err := s.Err(); err != nil {
			t.Fatalf("%d B: resume faulted: %v", c.session, err)
		}
	}
}

// TestRecordFillsChunks pins the chunk layout a replay hands out: a
// trace longer than one chunk streams as full TraceChunkRecs-record
// batches and one shorter last batch, the records a live machine
// retires.
func TestRecordFillsChunks(t *testing.T) {
	rm, lm := newPair(t, "blowfish", isa.FeatRot, 4096)
	tr, done := emu.Record(rm, 0)
	if !done {
		t.Fatal("record incomplete")
	}
	n := tr.Len()
	if n <= emu.TraceChunkRecs || n%emu.TraceChunkRecs == 0 {
		t.Fatalf("%d records: want a trace that ends inside its second or later chunk", n)
	}
	s := tr.Stream()
	var recs []emu.TraceRec
	for left := n; left > 0; {
		batch, ok := s.Next()
		if want := min(left, emu.TraceChunkRecs); !ok || len(batch) != want {
			t.Fatalf("batch at record %d: %d records (ok %v), want %d", n-left, len(batch), ok, want)
		}
		recs = append(recs, batch...)
		left -= len(batch)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream overruns the trace")
	}
	matchLive(t, lm, tr.Prog, recs)
}

// TestStreamAt pins the sampling-window contract on a trace of many
// chunks (3des/rot/4 KB, ~950K records): Stream() yields exactly the
// records a live machine retires, StreamAt(s,e) exactly the records of
// its [s,e) window — windows that straddle or touch chunk boundaries
// included — and bounds are clamped rather than panicking.
func TestStreamAt(t *testing.T) {
	rm, lm := newPair(t, "3des", isa.FeatRot, 4096)
	tr, done := emu.Record(rm, 0)
	if !done {
		t.Fatal("record incomplete")
	}
	n := tr.Len()
	const c = emu.TraceChunkRecs
	if n <= 3*c+200 {
		t.Fatalf("%d records: want a trace of more than three chunks", n)
	}
	full := drain(t, tr.Stream())
	matchLive(t, lm, tr.Prog, full)
	windows := [][2]int{
		{0, n}, {0, 1}, {1, n}, {n / 3, 2 * n / 3}, {n - 1, n}, {n, n},
		{c - 1, c + 1}, {c, 2 * c}, {c - 5, 2*c + 5}, {3*c + 17, 3*c + 117}, {n - c - 3, n},
	}
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
