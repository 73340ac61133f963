package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	rm "runtime/metrics"
	"strings"
	"sync"
	"time"

	"cryptoarch/internal/experiments"
	"cryptoarch/internal/harness"
	"cryptoarch/internal/metrics"
	"cryptoarch/internal/store"
)

// sweepPass is one timed experiments sweep and what it left behind.
type sweepPass struct {
	wall     time.Duration // the SweepObservedCtx call
	out      *experiments.SweepOutcome
	reg      *metrics.Registry // private to the pass
	spans    []metrics.Span    // nil when untraced
	tc       harness.TraceCacheStats
	st       store.Stats
	diskMB   float64
	gc       gcStats
	heapPeak float64 // MB, sampled while traced
}

// runSweep sweeps cells on a fresh registry (and, when traced, a fresh
// timeline), returning the pass with its counters read back.
func runSweep(cells []experiments.Cell, traced bool) *sweepPass {
	reg := metrics.NewRegistry()
	harness.SetMetrics(reg)
	var tl *metrics.Timeline
	var hs *heapSampler
	if traced {
		tl = metrics.NewTimeline()
		harness.SetTimeline(tl)
		defer harness.SetTimeline(nil)
		hs = startHeapSampler()
	}
	g0 := readGC()
	t0 := time.Now()
	out := experiments.SweepObservedCtx(context.Background(), cells, nil)
	p := &sweepPass{wall: time.Since(t0), out: out, reg: reg}
	p.gc = readGC().sub(g0)
	if traced {
		p.heapPeak = hs.stop()
		p.spans = tl.Spans()
	}
	p.tc = harness.ReadTraceCacheStats()
	p.st = store.ReadStats()
	if s := harness.CurrentStore(); s != nil {
		p.diskMB = float64(s.BytesUsed()) / (1 << 20)
	}
	return p
}

// checkCells counts every unique cell of the pass as one attempt, failed
// unless it completed.
func (r *run) checkCells(what string, p *sweepPass) {
	for _, co := range p.out.Cells {
		r.check(co.State == experiments.CellDone, "%s: cell %v: %v %v", what, co.Cell, co.State, co.Err)
	}
}

// layers derives the per-layer metrics a sweep pass exposes: scheduler
// figures from the outcome and registry, layer self time from the span
// timeline, cache and store traffic from their counters.
func (p *sweepPass) layers(workers int) map[string]float64 {
	m := map[string]float64{}
	var walls []float64
	var maxCell time.Duration
	for _, co := range p.out.Cells {
		walls = append(walls, float64(co.Wall)/1e6)
		maxCell = max(maxCell, co.Wall)
		if co.Cell.Kind == experiments.CellHandshake {
			m["pubkey.handshake_s"] = co.Wall.Seconds()
		}
	}
	m["experiments.cells"] = float64(len(p.out.Cells))
	m["experiments.cell_ms.p50"], _ = percentile(walls, 50)
	p90, n := percentile(walls, 90)
	m["experiments.cell_ms.p90"] = p90
	m["experiments.cell_ms.samples"] = float64(n)
	m["experiments.max_cell_s"] = maxCell.Seconds()
	m["experiments.queue_wait_s"] = float64(p.reg.Histogram("sweep.queue_wait_ns").Sum()) / 1e9
	var busy time.Duration
	for w := 1; w <= workers; w++ {
		busy += time.Duration(p.reg.Counter(fmt.Sprintf("sweep.worker.%02d.busy_ns", w)).Value())
	}
	m["experiments.idle_share"] = idleShare(busy, workers, p.wall)
	if p.spans != nil {
		m["experiments.cell_self_s"] = spanSelf(p.spans, "cell").Seconds()
		m["experiments.unattributed_share"] = unattributedShare(p.spans, workers)
		for model, ms := range replayMS(p.spans) {
			m["ooo.run_ms."+modelSlugs[model]] = median(ms)
		}
	}

	m["harness.trace_records"] = float64(p.tc.Records)
	m["harness.trace_hits"] = float64(p.tc.Hits)
	m["harness.trace_misses"] = float64(p.tc.Misses)
	m["harness.trace_evictions"] = float64(p.tc.Evictions)
	m["harness.trace_resumes"] = float64(p.tc.Resumes)
	m["harness.live_fallbacks"] = float64(p.tc.LiveFallbacks)
	m["harness.record_s"] = p.tc.RecordTime.Seconds()
	m["harness.sampled_cells"] = float64(p.reg.Counter("sample.runs").Value())
	m["harness.exact_fallbacks"] = float64(p.reg.Counter("sample.exact_fallbacks").Value())
	m["harness.sample_intervals"] = float64(p.reg.Counter("sample.intervals").Value())

	addEngine(m, p.reg)

	m["store.writes"] = float64(p.st.Writes)
	m["store.write_s"] = p.st.WriteTime.Seconds()
	m["store.disk_mb"] = p.diskMB
	m["store.trace_hits"] = float64(p.st.TraceHits)
	m["store.load_s"] = p.st.LoadTime.Seconds()
	m["store.result_hits"] = float64(p.st.ResultHits)
	m["store.corrupt"] = float64(p.st.Corrupt)
	m["store.retries"] = float64(p.st.Retries)
	m["store.degraded"] = float64(p.st.Degraded)

	p.gc.addTo(m)
	m["go.heap_peak_mb"] = p.heapPeak
	return m
}

// addEngine adds the timing engine's registry totals.
func addEngine(m map[string]float64, reg *metrics.Registry) {
	insts := float64(reg.Counter("ooo.insts").Value())
	runS := float64(reg.Histogram("ooo.run_ns").Sum()) / 1e9
	m["ooo.runs"] = float64(reg.Counter("ooo.runs").Value())
	m["ooo.insts"] = insts
	m["ooo.cycles"] = float64(reg.Counter("ooo.cycles").Value())
	m["ooo.run_s"] = runS
	if runS > 0 {
		m["ooo.engine_mips"] = insts / runS / 1e6
	}
}

// replayMS groups the durations (ms) of engine-run spans by machine model.
// The harness names them "run <model> <cipher>/<feat>".
func replayMS(spans []metrics.Span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		if s.Cat != "replay" || s.End < 0 {
			continue
		}
		f := strings.Fields(s.Name)
		if len(f) < 2 || modelSlugs[f[1]] == "" {
			continue
		}
		out[f[1]] = append(out[f[1]], float64(s.End-s.Start)/1e6)
	}
	return out
}

// modelMIPS is, per machine model, the instructions of the pass's cells
// on that model per host second of the pass. insts returns a cell's
// instruction count, or false for cells not counted.
func modelMIPS(p *sweepPass, insts func(experiments.Cell) (uint64, bool)) map[string]float64 {
	n := map[string]float64{}
	for _, co := range p.out.Cells {
		if modelSlugs[co.Cell.Cfg.Name] == "" {
			continue
		}
		if k, ok := insts(co.Cell); ok {
			n[co.Cell.Cfg.Name] += float64(k)
		}
	}
	out := map[string]float64{}
	for model, k := range n {
		out["sim_mips."+modelSlugs[model]] = k / p.wall.Seconds() / 1e6
	}
	return out
}

// gcStats is a delta of the Go runtime's collector counters.
type gcStats struct {
	cycles uint32
	pause  time.Duration
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{cycles: ms.NumGC, pause: time.Duration(ms.PauseTotalNs)}
}

func (g gcStats) sub(o gcStats) gcStats {
	return gcStats{cycles: g.cycles - o.cycles, pause: g.pause - o.pause}
}

func (g gcStats) addTo(m map[string]float64) {
	m["go.gc_cycles"] = float64(g.cycles)
	m["go.gc_pause_s"] = g.pause.Seconds()
}

// heapSampler polls the live heap size every 5 ms and keeps the peak.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []rm.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			rm.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampling goroutine, waits for it, and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// openStore opens a fresh store in a new directory under the run's temp
// root and installs it; the returned function uninstalls it and removes
// the directory.
func openStore(r *run) (func(), error) {
	dir, err := os.MkdirTemp(r.tmp, "store-")
	if err != nil {
		return nil, err
	}
	s, err := store.Open(dir, 2<<30)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	harness.SetStore(s)
	return func() {
		harness.SetStore(nil)
		os.RemoveAll(dir)
	}, nil
}

// rekey returns the cells with every seed replaced by seed. The handshake
// cell has no seed and keeps its own.
func rekey(cells []experiments.Cell, seed int64) []experiments.Cell {
	out := make([]experiments.Cell, len(cells))
	for i, c := range cells {
		if c.Kind != experiments.CellHandshake {
			c.Seed = seed
		}
		out[i] = c
	}
	return out
}

// medianLayers reduces per-pass layer maps to one value per metric.
func medianLayers(runs []map[string]float64) map[string]float64 {
	all := map[string][]float64{}
	for _, m := range runs {
		for k, v := range m {
			all[k] = append(all[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range all {
		out[k] = median(vs)
	}
	return out
}

// overhead is (traced − untraced) / untraced of the two median times.
func overhead(traced, untraced []float64) float64 {
	u := median(untraced)
	if u == 0 || len(traced) == 0 {
		return 0
	}
	return (median(traced) - u) / u
}
