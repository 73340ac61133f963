package check

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestViolationError(t *testing.T) {
	v := Violationf("rob-entry", 42, "seq %d mismatch", 7)
	if got := v.Error(); !strings.Contains(got, "rob-entry") || !strings.Contains(got, "cycle 42") {
		t.Fatalf("unexpected message %q", got)
	}
	wrapped := fmt.Errorf("run failed: %w", v)
	got, ok := AsViolation(wrapped)
	if !ok || got.Check != "rob-entry" {
		t.Fatalf("AsViolation(%v) = %v, %v", wrapped, got, ok)
	}
	if _, ok := AsViolation(errors.New("plain")); ok {
		t.Fatal("AsViolation matched a plain error")
	}
	v0 := Violationf("slot-accounting", 0, "x")
	if strings.Contains(v0.Error(), "cycle") {
		t.Fatalf("cycle-less violation mentions a cycle: %q", v0.Error())
	}
}

func TestBudgetError(t *testing.T) {
	b := &BudgetError{Resource: "instructions", Subject: "loop", Limit: 10, Used: 11}
	if !IsBudget(fmt.Errorf("emu: %w", b)) {
		t.Fatal("IsBudget failed to match a wrapped BudgetError")
	}
	if IsBudget(errors.New("other")) {
		t.Fatal("IsBudget matched a plain error")
	}
	for _, want := range []string{"instructions", "loop", "10", "11"} {
		if !strings.Contains(b.Error(), want) {
			t.Fatalf("message %q missing %q", b.Error(), want)
		}
	}
}

// TestInjectorDeterminism pins that the same seed produces the same fault
// plan — the property every detection-coverage test depends on.
func TestInjectorDeterminism(t *testing.T) {
	a, b := NewInjector(99), NewInjector(99)
	bufA, bufB := make([]byte, 64), make([]byte, 64)
	for i := 0; i < 32; i++ {
		ia, ba := a.FlipBit(bufA)
		ib, bb := b.FlipBit(bufB)
		if ia != ib || ba != bb {
			t.Fatalf("iteration %d: (%d,%d) != (%d,%d)", i, ia, ba, ib, bb)
		}
		if a.Point(1000) != b.Point(1000) || a.Uint64() != b.Uint64() {
			t.Fatalf("iteration %d: diverged on Point/Uint64", i)
		}
	}
	if string(bufA) != string(bufB) {
		t.Fatal("corrupted buffers differ across equal seeds")
	}
}

func TestInjectorFlipBitChangesExactlyOneBit(t *testing.T) {
	in := NewInjector(7)
	buf := make([]byte, 16)
	idx, bit := in.FlipBit(buf)
	for i, v := range buf {
		want := byte(0)
		if i == idx {
			want = 1 << bit
		}
		if v != want {
			t.Fatalf("byte %d = %#x, want %#x", i, v, want)
		}
	}
	v, b := in.FlipBit64(0)
	if v != 1<<b {
		t.Fatalf("FlipBit64(0) = %#x with bit %d", v, b)
	}
}

func TestInjectorLog(t *testing.T) {
	in := NewInjector(1)
	in.Note(FaultSboxCache)
	in.Note(FaultROBEntry)
	got := in.Injected()
	if len(got) != 2 || got[0] != FaultSboxCache || got[1] != FaultROBEntry {
		t.Fatalf("Injected() = %v", got)
	}
}

func TestSuggest(t *testing.T) {
	valid := []string{"3des", "blowfish", "idea", "rc4"}
	got := Suggest("blowfsh", valid)
	if !strings.Contains(got, `did you mean "blowfish"`) {
		t.Fatalf("Suggest(blowfsh) = %q, want a blowfish hint", got)
	}
	if !strings.Contains(got, "3des, blowfish, idea, rc4") {
		t.Fatalf("Suggest missing valid list: %q", got)
	}
	// Nothing close: list only, no hint.
	got = Suggest("zzzzzzzzzzzz", valid)
	if strings.Contains(got, "did you mean") {
		t.Fatalf("Suggest(zzzz...) offered a hint: %q", got)
	}
	if d := editDistance("kitten", "sitting"); d != 3 {
		t.Fatalf("editDistance(kitten, sitting) = %d, want 3", d)
	}
	if d := editDistance("", "abc"); d != 3 {
		t.Fatalf("editDistance(empty, abc) = %d, want 3", d)
	}
}
