package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"cryptoarch/internal/experiments"
	"cryptoarch/internal/harness"
	"cryptoarch/internal/metrics"
	"cryptoarch/internal/ooo"
)

// sampleK is the interval count of asplos2000 -sample 4.
const sampleK = 4

// paperSampled sweeps the grid's 4 KB kernel-timing cells under interval
// sampling. Set-up records their traces into a fresh store and then drops
// the in-memory trace cache, so the timed pass faults every trace in from
// disk. After the passes an untimed check runs each cell exactly and
// sampled to measure the sampler's error against its reported bound.
func paperSampled(r *run) (*outcome, error) {
	var cells []experiments.Cell
	seen := map[string]bool{}
	for _, c := range rekey(experiments.AllCells(), r.seed) {
		if c.Kind == experiments.CellKernel && c.Session == experiments.SessionBytes && !seen[c.String()] {
			seen[c.String()] = true
			cells = append(cells, c)
		}
	}
	budget := &experiments.CellBudget{Mode: experiments.BudgetSampled, SampleIntervals: sampleK}
	insts := map[traceKey]uint64{}
	keyOf := func(c experiments.Cell) traceKey {
		return traceKey{kind: "encrypt", cipher: c.Cipher, feat: c.Feat, session: c.Session, seed: c.Seed}
	}
	var (
		setups, traced, untraced []float64
		rss                      []float64
		mips                     = map[string][]float64{}
		layerRuns                []map[string]float64
		closeStore               = func() {}
		ref                      = newHostRef(r.workers, 0)
	)
	defer func() { closeStore() }()
	minPasses := 1
	if r.trace {
		minPasses = 2
	}
	for i := 0; r.more(i, minPasses); i++ {
		tracedPass := r.trace && i%2 == 1
		closeStore()
		ref.tick()

		t0 := time.Now()
		cleanSlate()
		harness.SetMetrics(metrics.NewRegistry())
		var err error
		if closeStore, err = openStore(r); err != nil {
			closeStore = func() {}
			return nil, err
		}
		for _, c := range cells {
			// Records on the first request per trace, and writes it through
			// to the store.
			n, err := harness.CountKernel(c.Cipher, c.Feat, c.Session, c.Seed)
			if err != nil {
				return nil, fmt.Errorf("recording %v: %w", c, err)
			}
			insts[keyOf(c)] = n
		}
		rec := harness.ReadTraceCacheStats()
		experiments.ResetCache() // keep the traces on disk only
		setups = append(setups, time.Since(t0).Seconds())

		experiments.SetCellBudget(budget)
		p := runSweep(cells, tracedPass)
		experiments.SetCellBudget(nil)
		r.checkCells("sampled pass", p)
		fmt.Fprintf(os.Stderr, "paper-sampled pass %d: %.3f s (traced %v)\n", i, p.wall.Seconds(), tracedPass)

		if tracedPass {
			lay := p.layers(r.workers)
			var recorded uint64
			for _, n := range insts {
				recorded += n
			}
			lay["harness.record_s"] = rec.RecordTime.Seconds()
			if rec.RecordTime > 0 {
				lay["emu.record_mips"] = float64(recorded) / rec.RecordTime.Seconds() / 1e6
			}
			traced = append(traced, p.wall.Seconds())
			layerRuns = append(layerRuns, lay)
			continue
		}
		untraced = append(untraced, p.wall.Seconds())
		rss = append(rss, peakRSSMB())
		for k, v := range modelMIPS(p, func(c experiments.Cell) (uint64, bool) {
			n, ok := insts[keyOf(c)]
			return n, ok
		}) {
			mips[k] = append(mips[k], v)
		}
	}

	ref.tick()
	out := &outcome{e2e: map[string]float64{
		"setup_s":     median(setups),
		"sweep_s":     mean(untraced),
		"peak_rss_mb": median(rss),
	}, layers: medianLayers(layerRuns), ref: ref}
	for k, vs := range mips {
		out.e2e[k] = meanRate(vs)
	}
	out.layers["metrics.trace_overhead_share"] = overhead(traced, untraced)
	acc := r.accuracy(cells)
	fmt.Printf("accuracy: %d sampled cells, %d exact fallbacks excluded\n", acc.sampled, acc.fallbacks)
	out.layers["harness.sample_err_max"] = acc.errMax
	out.layers["harness.bound_miss_ratio"] = acc.missRatio
	return out, nil
}

// accuracyResult summarizes the sampled-vs-exact comparison over the
// cells that were really sampled; exact fallbacks are excluded and
// counted.
type accuracyResult struct {
	errMax, missRatio float64
	sampled           int
	fallbacks         int
}

// accuracy runs every cell exactly and through harness.TimeKernelSampled
// (K = sampleK) on two workers, checks both results, and derives the
// largest relative cycle error and the share of cells whose reported
// bound misses it.
func (r *run) accuracy(cells []experiments.Cell) accuracyResult {
	type cellAcc struct {
		exact, sampled *ooo.Stats
		rep            *harness.SampleReport
		err            error
	}
	got := make([]cellAcc, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			harness.AcquireWorker()
			defer harness.ReleaseWorker()
			for i := range next {
				c := cells[i]
				a := &got[i]
				if a.exact, a.err = harness.TimeKernel(c.Cipher, c.Feat, c.Cfg, c.Session, c.Seed); a.err != nil {
					continue
				}
				a.sampled, a.rep, a.err = harness.TimeKernelSampled(c.Cipher, c.Feat, c.Cfg, c.Session, c.Seed,
					harness.SampleOptions{Intervals: sampleK})
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()

	var res accuracyResult
	misses := 0
	for i, c := range cells {
		a := got[i]
		r.check(a.err == nil, "accuracy %v: %v", c, a.err)
		if a.err != nil {
			continue
		}
		if w := uint64(c.Cfg.IssueWidth); w > 0 {
			for _, st := range []*ooo.Stats{a.exact, a.sampled} {
				r.check(st.Stalls.Slots() == st.Cycles*w, "%v: slots %d != cycles %d x width %d", c, st.Stalls.Slots(), st.Cycles, w)
			}
		}
		r.check(a.sampled.Instructions == a.exact.Instructions, "%v: sampled %d instructions, exact %d", c, a.sampled.Instructions, a.exact.Instructions)
		if a.rep.Exact {
			res.fallbacks++
			r.check(*a.sampled == *a.exact, "%v: exact fallback differs from the exact run", c)
			continue
		}
		res.sampled++
		e := relErr(a.sampled.Cycles, a.exact.Cycles)
		res.errMax = max(res.errMax, e)
		if boundMissed(e, a.rep.RelErrBound) {
			misses++
		}
	}
	if res.sampled > 0 {
		res.missRatio = float64(misses) / float64(res.sampled)
	}
	return res
}
