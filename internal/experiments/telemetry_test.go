package experiments

import (
	"context"
	"reflect"
	"testing"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/metrics"
	"cryptoarch/internal/ooo"
)

// telemetryCells is a small sweep grid exercising both the record path
// (first config of each cipher) and the replay path (second config).
func telemetryCells() []Cell {
	var cells []Cell
	for _, cipher := range []string{"blowfish", "rc4"} {
		for _, cfg := range []ooo.Config{ooo.FourWide, ooo.EightWidePlus} {
			cells = append(cells, Cell{Kind: CellKernel, Cipher: cipher, Feat: isa.FeatRot, Cfg: cfg, Session: 512, Seed: DefaultSeed})
		}
	}
	return cells
}

// TestSpanNestingTiling pins the structural invariants of the span
// timeline a sweep emits: one sweep span; one cell span per unique cell,
// each parented to the sweep span and contained in it; cell spans on the
// same worker track tile (never overlap); record/replay phase spans nest
// inside cell spans; and everything is closed when the sweep returns.
func TestSpanNestingTiling(t *testing.T) {
	tl := metrics.NewTimeline()
	prevTL := harness.SetTimeline(tl)
	prevPar := SetParallelism(3)
	ResetCache()
	defer func() {
		harness.SetTimeline(prevTL)
		SetParallelism(prevPar)
		ResetCache()
	}()

	cells := telemetryCells()
	SweepObservedCtx(context.Background(), cells, nil)

	spans := tl.Spans()
	byCat := map[string][]metrics.SpanID{}
	for i, s := range spans {
		if s.End < 0 {
			t.Fatalf("span %d (%s %q) still open after the sweep returned", i, s.Cat, s.Name)
		}
		if s.End < s.Start {
			t.Fatalf("span %d (%s %q) ends before it starts", i, s.Cat, s.Name)
		}
		byCat[s.Cat] = append(byCat[s.Cat], metrics.SpanID(i))
	}

	if n := len(byCat["sweep"]); n != 1 {
		t.Fatalf("got %d sweep spans, want 1", n)
	}
	sweepID := byCat["sweep"][0]
	sweep := spans[sweepID]

	if n := len(byCat["cell"]); n != len(cells) {
		t.Fatalf("got %d cell spans, want %d (one per unique cell)", n, len(cells))
	}
	contains := func(outer, inner metrics.Span) bool {
		return inner.Start >= outer.Start && inner.End <= outer.End
	}
	cellIDs := map[metrics.SpanID]bool{}
	for _, id := range byCat["cell"] {
		s := spans[id]
		cellIDs[id] = true
		if s.Parent != sweepID {
			t.Fatalf("cell span %q parented to %d, want sweep span %d", s.Name, s.Parent, sweepID)
		}
		if !contains(sweep, s) {
			t.Fatalf("cell span %q [%v,%v] not contained in sweep [%v,%v]", s.Name, s.Start, s.End, sweep.Start, sweep.End)
		}
	}

	// Tiling: cell spans sharing a display track must not overlap — each
	// worker executes one cell at a time.
	byTrack := map[int][]metrics.Span{}
	for _, id := range byCat["cell"] {
		byTrack[spans[id].Track] = append(byTrack[spans[id].Track], spans[id])
	}
	for track, ss := range byTrack {
		for i := range ss {
			for j := i + 1; j < len(ss); j++ {
				a, b := ss[i], ss[j]
				if a.Start < b.End && b.Start < a.End {
					t.Fatalf("track %d: cell spans %q and %q overlap", track, a.Name, b.Name)
				}
			}
		}
	}

	// Phase spans (trace recording, engine replay) nest inside cells.
	for _, cat := range []string{"record", "replay"} {
		if len(byCat[cat]) == 0 {
			t.Fatalf("no %s spans recorded; expected at least one", cat)
		}
		for _, id := range byCat[cat] {
			s := spans[id]
			if !cellIDs[s.Parent] {
				t.Fatalf("%s span %q parented to span %d, want a cell span", cat, s.Name, s.Parent)
			}
			if !contains(spans[s.Parent], s) {
				t.Fatalf("%s span %q not contained in its parent cell %q", cat, s.Name, spans[s.Parent].Name)
			}
		}
	}
}

// TestSweepCountersDeterministic pins that the schedule-independent
// counters — trace-cache traffic, engine run totals, cells dispatched —
// are identical whatever the worker count: parallelism changes wall
// clock, never what was measured.
func TestSweepCountersDeterministic(t *testing.T) {
	deterministic := []string{
		"sweep.sweeps", "sweep.cells",
		"tracecache.hits", "tracecache.misses", "tracecache.records", "tracecache.replays",
		"ooo.runs", "ooo.insts", "ooo.cycles",
	}
	counters := func(workers int) map[string]int64 {
		reg := metrics.NewRegistry()
		prevReg := harness.SetMetrics(reg)
		prevPar := SetParallelism(workers)
		ResetCache()
		defer func() {
			harness.SetMetrics(prevReg)
			SetParallelism(prevPar)
			ResetCache()
		}()
		SweepObservedCtx(context.Background(), telemetryCells(), nil)
		out := map[string]int64{}
		snap := reg.Snapshot()
		for _, name := range deterministic {
			for _, c := range snap.Counters {
				if c.Name == name {
					out[name] = c.Value
				}
			}
		}
		return out
	}
	serial := counters(1)
	parallel := counters(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("schedule-dependent counters:\n1 worker:  %v\n4 workers: %v", serial, parallel)
	}
	if serial["sweep.cells"] != int64(len(telemetryCells())) {
		t.Fatalf("sweep.cells = %d, want %d", serial["sweep.cells"], len(telemetryCells()))
	}
	if serial["tracecache.misses"] == 0 || serial["tracecache.hits"] == 0 {
		t.Fatalf("expected both miss and hit traffic, got %v", serial)
	}
}

// TestMetricsReport pins the telemetry report: after a sweep it carries
// the scheduler counters and a fresh Go runtime sample, in snapshot
// (sorted) order.
func TestMetricsReport(t *testing.T) {
	reg := metrics.NewRegistry()
	prevReg := harness.SetMetrics(reg)
	ResetCache()
	defer func() {
		harness.SetMetrics(prevReg)
		ResetCache()
	}()
	SweepObservedCtx(context.Background(), telemetryCells(), nil)
	r := MetricsReport()
	if r.ID != "telemetry" {
		t.Fatalf("report id %q", r.ID)
	}
	names := map[string]bool{}
	for _, row := range r.Rows {
		names[row[0]] = true
	}
	for _, want := range []string{"sweep.cells", "tracecache.hits", "ooo.runs", "go.gc.cycles", "sweep.cell_ns"} {
		if !names[want] {
			t.Fatalf("telemetry report missing %q; rows: %v", want, rowNames(r))
		}
	}
}

func rowNames(r *Report) []string {
	var out []string
	for _, row := range r.Rows {
		out = append(out, row[0])
	}
	return out
}
