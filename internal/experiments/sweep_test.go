package experiments

import (
	"context"
	"fmt"
	"testing"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
)

// TestTimedCacheKeyIncludesSeed guards against a cache-key regression:
// measurements at different workload seeds must occupy different cache
// slots, while repeated requests at one seed must share a single run.
func TestTimedCacheKeyIncludesSeed(t *testing.T) {
	a1, err := timed("blowfish", isa.FeatRot, ooo.FourWide, 1024, 12345)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := timed("blowfish", isa.FeatRot, ooo.FourWide, 1024, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("same cell requested twice returned distinct Stats: cache miss on identical key")
	}
	b, err := timed("blowfish", isa.FeatRot, ooo.FourWide, 1024, 54321)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == b {
		t.Error("different seeds returned the same cached Stats: seed missing from the cache key")
	}
}

// TestSweepDedup checks that a grid with repeated cells executes each
// measurement once: every duplicate must resolve to the same result slot.
func TestSweepDedup(t *testing.T) {
	c := Cell{Kind: CellKernel, Cipher: "rc4", Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: 1024, Seed: DefaultSeed}
	SweepObservedCtx(context.Background(), []Cell{c, c, c}, nil)
	r1 := getCell(c, false)
	r2 := getCell(c, false)
	if r1 != r2 || r1.err != nil {
		t.Fatalf("duplicate cells not coalesced: %p vs %p (err %v)", r1, r2, r1.err)
	}
}

// TestSweepRecordsOnlySharedSessions pins the sweep's single-use rule. A
// session two kernel cells time (blowfish/rot/1024 on 4W and DF) is
// recorded once and replayed; a session one kernel cell times
// (rc4/rot/256 on 4W) runs on a live machine and records nothing, and so
// do a decrypt and a key-setup cell. Every cell's Stats equal those of
// its harness timing call run on its own. Under a sampled budget, which
// reads windows of the recorded trace, the single-use session records.
func TestSweepRecordsOnlySharedSessions(t *testing.T) {
	shared := Cell{Kind: CellKernel, Cipher: "blowfish", Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: 1024, Seed: DefaultSeed}
	sharedDF := shared
	sharedDF.Cfg = ooo.Dataflow
	single := Cell{Kind: CellKernel, Cipher: "rc4", Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: 256, Seed: DefaultSeed}
	decrypt := Cell{Kind: CellDecrypt, Cipher: "blowfish", Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: 1024, Seed: DefaultSeed}
	setup := Cell{Kind: CellSetup, Cipher: "blowfish", Feat: isa.FeatRot, Cfg: ooo.FourWide, Seed: DefaultSeed}
	cells := []Cell{shared, sharedDF, single, decrypt, setup}
	if got, want := fmt.Sprint(singleUse(cells)), "[false false true false false]"; got != want {
		t.Fatalf("singleUse = %s, want %s", got, want)
	}

	defer ResetCache()
	ResetCache()
	SweepObservedCtx(context.Background(), cells, nil)
	if st := harness.ReadTraceCacheStats(); st.Records != 1 {
		t.Fatalf("sweep recorded %d traces, want 1 (the shared session): %+v", st.Records, st)
	}
	swept := make([]string, len(cells))
	for i, c := range cells {
		r := getCell(c, false)
		if r.err != nil {
			t.Fatalf("%v: %v", c, r.err)
		}
		swept[i] = fmt.Sprintf("%+v", *r.stats)
	}
	ResetCache()
	for i, c := range cells {
		var st *ooo.Stats
		var err error
		switch c.Kind {
		case CellDecrypt:
			st, err = harness.TimeDecrypt(c.Cipher, c.Feat, c.Cfg, c.Session, c.Seed)
		case CellSetup:
			st, err = harness.TimeSetup(c.Cipher, c.Feat, c.Cfg, c.Seed)
		default:
			st, err = harness.TimeKernel(c.Cipher, c.Feat, c.Cfg, c.Session, c.Seed)
		}
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if got := fmt.Sprintf("%+v", *st); got != swept[i] {
			t.Errorf("%v: swept Stats differ from the harness call's\nswept    %s\nharness  %s", c, swept[i], got)
		}
	}

	defer SetCellBudget(SetCellBudget(&CellBudget{Mode: BudgetSampled}))
	ResetCache()
	SweepObservedCtx(context.Background(), []Cell{single}, nil)
	if st := harness.ReadTraceCacheStats(); st.Records != 1 {
		t.Fatalf("sampled sweep of the single-use session recorded %d traces, want 1", st.Records)
	}
}

// TestEffectiveWorkers pins the worker-count clamp: parallelism bounded
// by the unique cell count, never below one.
func TestEffectiveWorkers(t *testing.T) {
	defer SetParallelism(SetParallelism(1)) // restores the entry value
	SetParallelism(1)
	if n := effectiveWorkers(10); n != 1 {
		t.Errorf("parallelism 1, 10 cells: got %d workers, want 1", n)
	}
	SetParallelism(8)
	if n := effectiveWorkers(3); n != 3 {
		t.Errorf("parallelism 8, 3 cells: got %d workers, want 3", n)
	}
	if n := effectiveWorkers(0); n != 1 {
		t.Errorf("0 cells: got %d workers, want 1 (clamped)", n)
	}
	SetParallelism(4)
	if n := effectiveWorkers(100); n != 4 {
		t.Errorf("parallelism 4, 100 cells: got %d workers, want 4", n)
	}
}

// TestSweepSerialFallback asserts a one-worker sweep takes the serial
// path (no worker pool): the PR2 benchmark measured the one-worker pool
// 33% slower than plain iteration on a single-CPU host.
func TestSweepSerialFallback(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	c := Cell{Kind: CellCount, Cipher: "rc4", Feat: isa.FeatRot, Session: 64, Seed: DefaultSeed}

	SetParallelism(1)
	SweepObservedCtx(context.Background(), []Cell{c, c}, nil)
	if lastSweepWorkers != 1 {
		t.Errorf("parallelism 1: sweep used %d workers, want serial path (1)", lastSweepWorkers)
	}

	// Many workers but one unique cell still degenerates to serial.
	SetParallelism(6)
	SweepObservedCtx(context.Background(), []Cell{c, c, c}, nil)
	if lastSweepWorkers != 1 {
		t.Errorf("1 unique cell: sweep used %d workers, want serial path (1)", lastSweepWorkers)
	}

	if r := getCell(c, false); r.err != nil || r.n == 0 {
		t.Fatalf("serial-path sweep did not execute the cell: n=%d err=%v", r.n, r.err)
	}
}

// TestSerialParallelEquivalence regenerates every report of the suite
// twice — once with a single worker, once with four (forced, so the test
// exercises real concurrency even on single-CPU machines) — and asserts
// the rendered text is byte-identical. The parallel pass prefetches the
// declared grid with a sweep first, exactly as cmd/asplos2000 does, so
// this also pins that assembly order, not execution order, determines
// report content.
func TestSerialParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full experiment suite twice")
	}
	render := func() map[string]string {
		out := map[string]string{}
		for _, g := range All() {
			r, err := g.Run()
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			out[g.Name] = r.Text()
		}
		return out
	}
	defer ResetCache()
	defer SetParallelism(SetParallelism(1)) // evaluated now: restores the entry value

	ResetCache()
	SetParallelism(1)
	serial := render()

	ResetCache()
	SetParallelism(4)
	SweepObservedCtx(context.Background(), AllCells(), nil)
	parallel := render()

	for _, g := range All() {
		if serial[g.Name] != parallel[g.Name] {
			t.Errorf("%s: serial and parallel renderings differ\n--- serial ---\n%s\n--- parallel ---\n%s",
				g.Name, serial[g.Name], parallel[g.Name])
		}
	}
}
