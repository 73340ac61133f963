package harness

import (
	"sync"
	"testing"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
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

// TestTraceRecordEvictionRace streams 24 keys on four goroutines under a
// budget too small to hold them, so recordings publish while other
// goroutines evict. record must publish an entry's trace under traces.mu,
// because evictLocked reads every entry's trace under that lock, records
// still in flight included; under -race a write outside it fails here.
// Afterwards the cache holds exactly the bytes of the traces it retains,
// within budget, some traces were evicted, and every request counted as
// one hit or one miss.
func TestTraceRecordEvictionRace(t *testing.T) {
	defer SetMetrics(SetMetrics(metrics.NewRegistry()))
	ResetTraceCache()
	defer ResetTraceCache()
	prev := traceBudgetBytes
	defer func() { traceBudgetBytes = prev }()
	traceBudgetBytes = 200 << 10

	var keys []traceKey
	for _, cipher := range kernels.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			keys = append(keys, traceKey{cipher: cipher, feat: isa.FeatRot, session: 1024, seed: seed, mode: modeEncrypt})
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range keys {
				if _, _, err := traces.stream(keys[(i+g*len(keys)/workers)%len(keys)]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	traces.mu.Lock()
	held := 0
	for _, e := range traces.entries {
		if e.tr != nil {
			held += e.tr.Bytes()
		}
	}
	bytes := traces.bytes
	traces.mu.Unlock()
	if bytes != held || bytes > traceBudgetBytes {
		t.Fatalf("cache accounts %d bytes, holds %d, budget %d", bytes, held, traceBudgetBytes)
	}
	st := ReadTraceCacheStats()
	if want := workers * len(keys); st.Hits+st.Misses != want || st.Evictions == 0 {
		t.Fatalf("cache stats %+v: want %d hits plus misses, some evictions", st, want)
	}
}
