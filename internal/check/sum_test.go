package check

import (
	"encoding/binary"
	"testing"
)

// TestSum64KnownAnswer pins NewSum64 to the published catalogue check
// values over "123456789": CRC-32C 0xe3069283 in the high half, CRC-32
// 0xcbf43926 in the low half. Any change of polynomial, bit order, init
// or final xor — or of which half goes where — fails here, and it would
// make every stored entry unreadable.
func TestSum64KnownAnswer(t *testing.T) {
	const want uint64 = 0xe3069283cbf43926
	h := NewSum64()
	h.Write([]byte("123456789"))
	if got := h.Sum64(); got != want {
		t.Fatalf("NewSum64(\"123456789\") = %#x, want %#x", got, want)
	}
	if got := binary.BigEndian.Uint64(h.Sum(nil)); got != want {
		t.Fatalf("Sum bytes decode to %#x, want %#x", got, want)
	}

	// Streaming: any split of the input gives the one-shot sum.
	for cut := 0; cut <= 9; cut++ {
		h.Reset()
		h.Write([]byte("123456789"[:cut]))
		h.Write([]byte("123456789"[cut:]))
		if got := h.Sum64(); got != want {
			t.Fatalf("split at %d: %#x, want %#x", cut, got, want)
		}
	}
	h.Reset()
	if h.Sum64() != 0 || h.Size() != 8 {
		t.Fatalf("reset sum %#x size %d, want 0 and 8", h.Sum64(), h.Size())
	}
}
