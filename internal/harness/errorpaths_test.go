package harness

import (
	"strings"
	"testing"

	"cryptoarch/internal/check"
	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
)

// Error-path tests: every malformed input a command-line flag can express
// must come back as an error from the harness API, never a panic from the
// golden models or the builder.

func TestUnknownCipherSuggestion(t *testing.T) {
	_, err := NewWorkload("blowfsh", 64, 1)
	if err == nil {
		t.Fatal("unknown cipher accepted")
	}
	if !strings.Contains(err.Error(), `did you mean "blowfish"`) {
		t.Fatalf("err = %v, want a blowfish suggestion", err)
	}
	if _, err := TimeKernel("rjindael", isa.FeatOpt, ooo.FourWide, 64, 1); err == nil ||
		!strings.Contains(err.Error(), `did you mean "rijndael"`) {
		t.Fatalf("err = %v, want a rijndael suggestion", err)
	}
	// Hopeless names still enumerate the valid set.
	if _, err := NewWorkload("chacha20", 64, 1); err == nil ||
		!strings.Contains(err.Error(), "valid:") || strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("err = %v, want the valid set without a suggestion", err)
	}
}

func TestBadSessionBytes(t *testing.T) {
	for _, n := range []int{0, -8} {
		if _, err := NewWorkload("blowfish", n, 1); err == nil ||
			!strings.Contains(err.Error(), "must be positive") {
			t.Fatalf("session %d: err = %v, want a positivity error", n, err)
		}
	}
	// Partial blocks are rejected for block ciphers...
	if _, err := NewWorkload("blowfish", 65, 1); err == nil ||
		!strings.Contains(err.Error(), "8-byte blocks") {
		t.Fatalf("err = %v, want a block-multiple error", err)
	}
	// ...but any positive length is fine for the RC4 stream kernel.
	if _, err := NewWorkload("rc4", 65, 1); err != nil {
		t.Fatalf("rc4 rejects a 65-byte session: %v", err)
	}
}

// TestRecordingBudgetFault pins harness-level propagation of the
// emulator's runaway guard: when the recording machine exhausts its
// instruction budget, the request fails with the typed error instead of
// caching (or resuming) a truncated trace.
func TestRecordingBudgetFault(t *testing.T) {
	ResetTraceCache()
	recordMaxInsts = 1000 // far below any real session
	defer func() { recordMaxInsts = 0; ResetTraceCache() }()

	_, _, err := StreamKernel("blowfish", isa.FeatRot, 4096, 99)
	if err == nil {
		t.Fatal("budget-faulted recording produced a stream")
	}
	if !check.IsBudget(err) {
		t.Fatalf("err = %v, want it to wrap *check.BudgetError", err)
	}
	if !strings.Contains(err.Error(), "recording blowfish") {
		t.Fatalf("err = %v, want attribution to the recording", err)
	}
	// The failed entry must not have been retained as a trace.
	if st := ReadTraceCacheStats(); st.Records != 0 {
		t.Fatalf("faulted recording was retained: %+v", st)
	}
}

// TestResumeStreamBudgetFaultFailsRun covers the oversized-trace path end
// to end: a session whose recording overflows the retention cap resumes
// live, and a budget fault during the live tail fails the timing run.
func TestResumeStreamBudgetFaultFailsRun(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()

	// Record a real (tiny) trace, then replay it through a machine whose
	// budget expires mid-stream by driving the resume path directly.
	w, err := NewWorkload("blowfish", 1024, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Prepare(w, isa.FeatRot)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInsts = 5000
	tr, complete := emu.Record(m, 1000)
	if complete {
		t.Fatal("session unexpectedly fit in 1000 instructions")
	}
	if m.Err() != nil {
		t.Fatalf("premature fault during prefix: %v", m.Err())
	}
	_, err = ooo.NewEngine(ooo.FourWide, tr.Resume(m)).Run()
	if err == nil || !check.IsBudget(err) {
		t.Fatalf("Run over a faulting resume stream returned %v, want a budget error", err)
	}
}
