//go:build !race

// The race detector's sync.Pool drops pooled objects at random, so under
// it the engine's pooled timing ring would count as a per-run allocation.

package harness

import (
	"runtime"
	"runtime/debug"
	"testing"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
)

// TestPerfectMemoryRunAllocs pins what one replayed DF run allocates. A
// machine with perfect memory builds no cache hierarchy (~310 KB of cache
// and TLB arrays), so a blowfish/rot/4 KB run through TimeKernel stays
// under 256 KB.
func TestPerfectMemoryRunAllocs(t *testing.T) {
	const runs, limit = 20, 256 << 10
	run := func() {
		if _, err := TimeKernel("blowfish", isa.FeatRot, ooo.Dataflow, 4096, 12345); err != nil {
			t.Fatal(err)
		}
	}
	run() // records the trace and fills the engine's pools
	// A collection would empty the pools the runs below draw from.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes in %d objects per run", per, (after.Mallocs-before.Mallocs)/runs)
	if per >= limit {
		t.Fatalf("a DF run allocates %d bytes, want under %d", per, limit)
	}
}

// TestRecordAllocatesTraceSize pins what a recording costs: the trace's
// own chunks, not a full-capacity buffer plus a retained copy. Recording
// blowfish/rot/4 KB (175,666 records, 2.7 MB) into the cache allocates
// under twice the trace's Bytes(), measured as the TotalAlloc delta.
func TestRecordAllocatesTraceSize(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	k := traceKey{cipher: "blowfish", feat: isa.FeatRot, session: 4096, seed: 12345}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, _, err := traces.traceFor(k)
	runtime.ReadMemStats(&after)
	if err != nil || tr == nil {
		t.Fatalf("trace not retained (%v)", err)
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, 2*uint64(tr.Bytes())
	t.Logf("recording %d records (%d bytes) allocated %d bytes", tr.Len(), tr.Bytes(), got)
	if got >= limit {
		t.Fatalf("recording allocated %d bytes, want under %d (twice the trace)", got, limit)
	}
}
