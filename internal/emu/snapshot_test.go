package emu_test

import (
	"testing"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
)

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

// TestStreamAt pins the chunk-window contract: StreamAt(s,e) delivers
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

// TestSnapshotMaterialize pins that a snapshot taken mid-run yields
// machines that continue exactly like the original — and that the
// original machine, and machines materialized twice from one snapshot,
// are all mutually independent.
func TestSnapshotMaterialize(t *testing.T) {
	ref := refTrace(t, 128)
	n := len(ref.Recs)
	p := n / 2

	m, _ := newPair(t, "blowfish", isa.FeatRot, 128)
	for i := 0; i < p; i++ {
		if m.Step() == nil {
			t.Fatalf("machine halted at %d, before boundary %d", i, p)
		}
	}
	snap := m.Snapshot()
	if snap.Icount() != uint64(p) {
		t.Fatalf("snapshot Icount %d, want %d", snap.Icount(), p)
	}

	// The original and two independent materializations must all deliver
	// the identical suffix.
	mats := []*emu.Machine{m, snap.Materialize(), snap.Materialize()}
	for mi, mm := range mats {
		matchLive(t, mm, ref.Prog, drain(t, ref.StreamAt(p, n)))
		if err := mm.Err(); err != nil {
			t.Fatalf("machine %d faulted: %v", mi, err)
		}
	}
}

// TestResumeAt pins the chunk-addressable resume path: a machine
// materialized at the end of a recorded prefix can resume from any start
// offset inside the prefix and deliver exactly the reference stream from
// that offset to program end.
func TestResumeAt(t *testing.T) {
	ref := refTrace(t, 128)
	n := len(ref.Recs)

	rm, _ := newPair(t, "blowfish", isa.FeatRot, 128)
	prefix := n / 2
	tr, done := emu.Record(rm, prefix, nil)
	if done || len(tr.Recs) != prefix {
		t.Fatalf("prefix record: done=%v len=%d want %d", done, len(tr.Recs), prefix)
	}
	snap := rm.Snapshot()

	for _, start := range []int{0, 1, prefix / 2, prefix - 1, prefix} {
		s := tr.ResumeAt(snap.Materialize(), start)
		got, want := drain(t, s), drain(t, ref.StreamAt(start, n))
		if len(got) != len(want) {
			t.Fatalf("start %d: resume delivered %d records, reference %d", start, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("start %d rec %d mismatch:\nresume %+v\nref    %+v", start, start+i, got[i], want[i])
			}
		}
		if err := s.Err(); err != nil {
			t.Fatalf("start %d: resume faulted: %v", start, err)
		}
	}
}

// FuzzSnapshotResume drives mid-trace snapshot/resume at arbitrary chunk
// boundaries: step a live machine to an arbitrary record index, snapshot,
// materialize, and require the materialized machine's continuation to be
// record-identical to the golden full trace — while the original machine,
// stepped on past the snapshot, stays unperturbed.
func FuzzSnapshotResume(f *testing.F) {
	ref := refTrace(f, 64)
	n := len(ref.Recs)
	f.Add(uint16(0))
	f.Add(uint16(1))
	f.Add(uint16(n / 2))
	f.Add(uint16(n - 1))
	f.Add(uint16(n))
	f.Add(uint16(65535))
	f.Fuzz(func(t *testing.T, rawP uint16) {
		p := int(rawP) % (n + 1)
		m, _ := newPair(t, "blowfish", isa.FeatRot, 64)
		for i := 0; i < p; i++ {
			if m.Step() == nil {
				t.Fatalf("machine halted at %d, before boundary %d", i, p)
			}
		}
		snap := m.Snapshot()
		mat := snap.Materialize()
		want := drain(t, ref.StreamAt(p, n))
		i := 0
		for {
			or := m.Step()   // original continues...
			mr := mat.Step() // ...and so does the materialized copy
			if i == len(want) || or == nil || mr == nil {
				if i != len(want) || or != nil || mr != nil {
					t.Fatalf("length mismatch at %d: ref=%v orig=%v mat=%v", p+i, i < len(want), or != nil, mr != nil)
				}
				break
			}
			if !sameRec(or, ref.Prog, want[i]) {
				t.Fatalf("original rec %d diverged after snapshot:\nlive %+v\nref  %+v", p+i, *or, want[i])
			}
			if !sameRec(mr, ref.Prog, want[i]) {
				t.Fatalf("materialized rec %d mismatch:\nlive %+v\nref  %+v", p+i, *mr, want[i])
			}
			i++
		}
		if m.Err() != nil || mat.Err() != nil {
			t.Fatalf("faults after clean runs: orig=%v mat=%v", m.Err(), mat.Err())
		}
	})
}
