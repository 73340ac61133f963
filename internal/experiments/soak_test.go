package experiments

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/store"
)

// Interruption soak: a small real sweep (emulation-only cells over a
// persistent store) survives rounds of cancellation at varying points and
// forced panics without corrupting anything. After the chaos, one clean
// sweep completes every cell, and a final pass over a fresh process-state
// (cache dropped, counters zeroed) warm-hits the store for the entire
// grid — proving every entry the interrupted rounds persisted is intact
// and nothing poisoned leaked to disk. Last, an uninterrupted sweep in a
// fresh store must reproduce every result the interrupted-then-re-run
// store serves.

func soakGrid() []Cell {
	var cells []Cell
	for _, cipher := range []string{"blowfish", "rc4"} {
		cells = append(cells,
			Cell{Kind: CellCount, Cipher: cipher, Feat: isa.FeatRot, Session: 512, Seed: DefaultSeed},
			Cell{Kind: CellMix, Cipher: cipher, Feat: isa.FeatRot, Session: 512, Seed: DefaultSeed},
		)
	}
	return cells
}

func TestSweepInterruptionSoak(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	prevStore := harness.SetStore(s)
	t.Cleanup(func() {
		harness.SetStore(prevStore)
		ResetCache()
	})
	prevPar := SetParallelism(2)
	t.Cleanup(func() { SetParallelism(prevPar) })

	cells := soakGrid()
	panicTarget := cells[0].key()

	// Chaos rounds: the first few also panic one cell (so that cell never
	// stores), and every round is cancelled once a staggered number of
	// cells has finished — from "before the first" through "mid-sweep" to
	// "after the last". The grid takes about a millisecond, too short for
	// a timer to stop it mid-sweep reliably.
	midSweep := 0
	for round := 0; round < 8; round++ {
		ResetCache() // forget memo state; disk survives, like a new process
		if round < 3 {
			execOverride = func(c Cell, r *cellResult) bool {
				if c.key() == panicTarget {
					panic("soak: forced cell panic")
				}
				return false // everything else executes for real
			}
		} else {
			execOverride = nil
		}
		ctx, cancel := context.WithCancel(context.Background())
		stop := round % (len(cells) + 1)
		if stop == 0 {
			cancel()
		}
		out := SweepObservedCtx(ctx, cells, func(done, _ int, _ Cell, _ time.Duration) {
			if done == stop {
				cancel()
			}
		})
		cancel()
		execOverride = nil
		if n := out.Count(CellSkipped); n > 0 && n < len(cells) {
			midSweep++
		}
		// Invariants that must hold after every interrupted round: no
		// temp-file residue in the store, and no interrupt artifact
		// classified as a cell failure (panics are the only poison here).
		if m, _ := filepath.Glob(filepath.Join(dir, "put-*")); len(m) != 0 {
			t.Fatalf("round %d: temp residue %v", round, m)
		}
		for _, co := range out.Poisoned() {
			if _, ok := co.Err.(*CellPanicError); !ok {
				t.Fatalf("round %d: non-panic poison %v: %v", round, co.Cell, co.Err)
			}
		}
	}

	if midSweep == 0 {
		t.Fatal("no chaos round stopped mid-sweep")
	}

	// The store must reopen cleanly after all that (manifest intact, every
	// entry checksum-verified lazily on load).
	s2, err := store.Open(dir, 1<<30)
	if err != nil {
		t.Fatalf("store did not survive the soak: %v", err)
	}
	harness.SetStore(s2)

	// Clean run: everything completes, including the cell the chaos rounds
	// kept panicking (its failures were never persisted).
	ResetCache()
	out := SweepObservedCtx(context.Background(), cells, nil)
	if !out.Clean() {
		t.Fatalf("clean run not clean: cancelled=%v poisoned=%v", out.Cancelled, out.Poisoned())
	}
	if got := out.Count(CellDone); got != len(cells) {
		t.Fatalf("clean run: %d of %d done", got, len(cells))
	}

	// Final pass from zeroed counters: the whole grid must warm-hit the
	// store — zero executions, zero misses, zero corrupt entries.
	ResetCache()
	out = SweepObservedCtx(context.Background(), cells, nil)
	if !out.Clean() {
		t.Fatalf("warm run not clean: %+v", out)
	}
	st := store.ReadStats()
	if st.ResultHits != len(cells) || st.ResultMisses != 0 {
		t.Fatalf("warm run: %d hits / %d misses, want %d / 0", st.ResultHits, st.ResultMisses, len(cells))
	}
	if st.Corrupt != 0 {
		t.Fatalf("soak left %d corrupt entries", st.Corrupt)
	}
	soaked := make([]*cellResult, len(cells))
	for i, c := range cells {
		soaked[i] = getCell(c, false)
	}

	// Reference: the same grid swept once, uninterrupted, in a fresh store.
	fresh, err := store.Open(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	harness.SetStore(fresh)
	ResetCache()
	if out := SweepObservedCtx(context.Background(), cells, nil); !out.Clean() {
		t.Fatalf("reference run not clean: %+v", out)
	}
	for i, c := range cells {
		ref, got := getCell(c, false), soaked[i]
		if ref.n == 0 && ref.mix.total == 0 {
			t.Fatalf("%s: uninterrupted run measured nothing", c.label())
		}
		if ref.n != got.n || ref.mix != got.mix {
			t.Fatalf("%s: soak result n=%d mix=%v, uninterrupted n=%d mix=%v",
				c.label(), got.n, got.mix, ref.n, ref.mix)
		}
	}
}
