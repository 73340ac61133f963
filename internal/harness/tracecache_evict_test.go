package harness

import (
	"testing"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/metrics"
)

// TestTraceBudgetEvicts pins LRU eviction under byte-budget pressure: with
// room for one trace, recording a second evicts the least recently used
// one, the cache then holds exactly the survivor's bytes, and the evicted
// key re-records on its next request.
func TestTraceBudgetEvicts(t *testing.T) {
	defer SetMetrics(SetMetrics(metrics.NewRegistry()))
	ResetTraceCache()
	defer ResetTraceCache()
	a := traceKey{cipher: "blowfish", feat: isa.FeatRot, session: 256, seed: 3, mode: modeEncrypt}
	b := traceKey{cipher: "rc6", feat: isa.FeatRot, session: 256, seed: 3, mode: modeEncrypt}
	size := map[traceKey]int{}
	for _, k := range []traceKey{a, b} {
		tr, _, err := traces.traceFor(k)
		if err != nil || tr == nil {
			t.Fatalf("%v: trace not retained (%v)", k, err)
		}
		size[k] = tr.Bytes()
	}
	ResetTraceCache()

	prev := traceBudgetBytes
	defer func() { traceBudgetBytes = prev }()
	traceBudgetBytes = max(size[a], size[b]) // room for either, not both

	for _, k := range []traceKey{a, b} {
		if _, _, err := traces.traceFor(k); err != nil {
			t.Fatal(err)
		}
	}
	traces.mu.Lock()
	_, hasA := traces.entries[a]
	_, hasB := traces.entries[b]
	bytes := traces.bytes
	traces.mu.Unlock()
	if hasA || !hasB {
		t.Fatalf("after recording B: A cached %v, B cached %v; want only B", hasA, hasB)
	}
	if bytes != size[b] {
		t.Fatalf("cache holds %d bytes, want B's %d", bytes, size[b])
	}
	st := ReadTraceCacheStats()
	if st.Evictions != 1 || st.Records != 2 {
		t.Fatalf("after recording B: %d evictions, %d records; want 1 and 2", st.Evictions, st.Records)
	}

	// The evicted key re-records on its next request (evicting B in turn).
	tr, _, err := traces.traceFor(a)
	if err != nil || tr == nil {
		t.Fatalf("re-request of evicted A: %v", err)
	}
	if st := ReadTraceCacheStats(); st.Records != 3 || st.Misses != 3 {
		t.Fatalf("re-request of evicted A: %d records, %d misses; want 3 and 3", st.Records, st.Misses)
	}
}
