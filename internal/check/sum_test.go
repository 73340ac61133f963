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

// TestSum64DetectsBursts pins the burst guarantee the store's entry sum
// rests on: flipping a run of 1-32 bits (first and last set, the middle
// random) anywhere in a random 8 KB payload always changes NewSum64,
// because each CRC half detects every such burst. Bit k of the stream is
// bit k%8 of byte k/8, the order both reflected CRCs consume; every third
// burst starts at or crosses a 16-byte boundary.
func TestSum64DetectsBursts(t *testing.T) {
	in := NewInjector(42)
	payload := make([]byte, 8240)
	for i := range payload {
		payload[i] = byte(in.Uint64())
	}
	sum := func() uint64 {
		h := NewSum64()
		h.Write(payload)
		return h.Sum64()
	}
	base := sum()
	flip := func(start int, pattern uint64, width int) {
		for k := 0; k < width; k++ {
			if pattern>>k&1 != 0 {
				payload[(start+k)/8] ^= 1 << ((start + k) % 8)
			}
		}
	}
	for trial := 0; trial < 3000; trial++ {
		width := 1 + in.Intn(32)
		pattern := uint64(1) | uint64(1)<<(width-1) | in.Uint64()&(1<<width-1)
		start := in.Intn(len(payload)*8 - width + 1)
		if trial%3 == 0 {
			start = 128*(1+in.Intn(len(payload)/16-1)) - in.Intn(width)
		}
		flip(start, pattern, width)
		if sum() == base {
			t.Fatalf("trial %d: %d-bit burst %#x at bit %d not reflected in the sum", trial, width, pattern, start)
		}
		flip(start, pattern, width) // restore
	}
	if sum() != base {
		t.Fatal("payload did not round-trip after restoring every burst")
	}
}
