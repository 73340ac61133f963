package experiments

import (
	"context"
	"sync"
	"testing"
	"time"

	"cryptoarch/internal/isa"
)

// TestSweepObservedProgress pins the progress contract: every unique cell
// is reported exactly once, done climbs monotonically to the unique-cell
// total (duplicates are deduped before counting), and callbacks are
// serialized. Runs under -race with forced parallelism to exercise the
// worker path.
func TestSweepObservedProgress(t *testing.T) {
	cells := []Cell{
		{Kind: CellCount, Cipher: "rc4", Feat: isa.FeatRot, Session: 64, Seed: 91},
		{Kind: CellCount, Cipher: "blowfish", Feat: isa.FeatRot, Session: 64, Seed: 91},
		{Kind: CellCount, Cipher: "rc4", Feat: isa.FeatRot, Session: 64, Seed: 91}, // duplicate
		{Kind: CellCount, Cipher: "idea", Feat: isa.FeatOpt, Session: 64, Seed: 91},
	}
	const uniq = 3
	prev := SetParallelism(4)
	defer SetParallelism(prev)

	var mu sync.Mutex
	seen := map[string]int{}
	last := 0
	SweepObservedCtx(context.Background(), cells, func(done, total int, c Cell, d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if total != uniq {
			t.Errorf("total = %d, want %d (duplicates must not count)", total, uniq)
		}
		if done != last+1 {
			t.Errorf("done jumped from %d to %d", last, done)
		}
		last = done
		seen[c.key()]++
		if d < 0 {
			t.Errorf("negative cell duration %v", d)
		}
	})
	if last != uniq {
		t.Fatalf("progress ended at %d/%d", last, uniq)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("cell %s reported %d times", k, n)
		}
	}
}
