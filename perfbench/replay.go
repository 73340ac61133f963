package main

import (
	"runtime"
	rm "runtime/metrics"
	"time"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/metrics"
	"cryptoarch/internal/ooo"
)

// The replay-models trace: the workload simbench times and its BENCH_*.json
// files record.
const (
	replayCipher  = "blowfish"
	replaySession = 4096
	replaySetups  = 9
)

var replayFeat = isa.FeatRot

// replayModels keeps one trace warm in the trace cache and replays it on
// the four machine models, round-robin within every round so a slow host
// phase hits all models alike. Set-up (record plus one warm-up run per
// model) is repeated replaySetups times; every timed run must reproduce
// the warm-up run's Stats exactly.
func replayModels(r *run) (*outcome, error) {
	// Replays and reference sorts share one OS thread (see hostRef.sample).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var (
		setups, recS, recMIPS []float64
		base                  = map[string]*ooo.Stats{}
		insts                 uint64
		ref                   = newHostRef(1, 500*time.Millisecond)
	)
	ref.tick()
	for i := 0; i < replaySetups; i++ {
		t0 := time.Now()
		cleanSlate()
		harness.SetMetrics(metrics.NewRegistry())
		n, err := harness.CountKernel(replayCipher, replayFeat, replaySession, r.seed)
		if err != nil {
			return nil, err
		}
		rec := harness.ReadTraceCacheStats().RecordTime
		for _, cfg := range ooo.Models {
			st, err := harness.TimeKernel(replayCipher, replayFeat, cfg, replaySession, r.seed)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				base[cfg.Name] = st
			} else {
				r.check(*st == *base[cfg.Name], "warm-up run on %s differs between set-ups", cfg.Name)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		insts = n
		recS = append(recS, rec.Seconds())
		if rec > 0 {
			recMIPS = append(recMIPS, float64(n)/rec.Seconds()/1e6)
		}
	}

	var (
		runs             = map[string][]float64{}
		traced, untraced []float64
		layerRuns        []map[string]float64
		allocSample      = []rm.Sample{{Name: "/gc/heap/allocs:objects"}}
		allocs           = func() uint64 { rm.Read(allocSample); return allocSample[0].Value.Uint64() }
		minRounds        = 1
	)
	if r.trace {
		minRounds = 2
	}
	for round := 0; r.more(round, minRounds); round++ {
		ref.tick()
		tracedRound := r.trace && round%2 == 1
		reg := metrics.NewRegistry()
		harness.SetMetrics(reg)
		lay := map[string]float64{}
		var tl *metrics.Timeline
		var hs *heapSampler
		if tracedRound {
			tl = metrics.NewTimeline()
			harness.SetTimeline(tl)
			hs = startHeapSampler()
		}
		g0 := readGC()
		t0 := time.Now()
		for _, cfg := range ooo.Models {
			a0 := allocs()
			ts := time.Now()
			st, err := harness.TimeKernel(replayCipher, replayFeat, cfg, replaySession, r.seed)
			d := time.Since(ts)
			a := allocs() - a0
			r.check(err == nil && *st == *base[cfg.Name], "replay on %s: stats differ from the warm-up run (%v)", cfg.Name, err)
			if tracedRound {
				lay["ooo.allocs_per_run."+modelSlugs[cfg.Name]] = float64(a)
			} else {
				runs[cfg.Name] = append(runs[cfg.Name], d.Seconds())
			}
		}
		wall := time.Since(t0).Seconds()
		if !tracedRound {
			untraced = append(untraced, wall)
			continue
		}
		harness.SetTimeline(nil)
		lay["go.heap_peak_mb"] = hs.stop()
		readGC().sub(g0).addTo(lay)
		addEngine(lay, reg)
		for model, ms := range replayMS(tl.Spans()) {
			lay["ooo.run_ms."+modelSlugs[model]] = median(ms)
		}
		tc := harness.ReadTraceCacheStats()
		lay["harness.trace_hits"] = float64(tc.Hits)
		lay["harness.trace_misses"] = float64(tc.Misses)
		ts := time.Now()
		_, _, err := harness.StreamKernel(replayCipher, replayFeat, replaySession, r.seed)
		lay["harness.stream_ms"] = float64(time.Since(ts)) / 1e6
		r.check(err == nil, "StreamKernel: %v", err)
		traced = append(traced, wall)
		layerRuns = append(layerRuns, lay)
	}

	out := &outcome{e2e: map[string]float64{
		"setup_s":     median(setups),
		"sweep_s":     mean(untraced),
		"peak_rss_mb": peakRSSMB(),
	}, layers: medianLayers(layerRuns), ref: ref}
	for _, cfg := range ooo.Models {
		if s := mean(runs[cfg.Name]); s > 0 {
			out.e2e["sim_mips."+modelSlugs[cfg.Name]] = float64(insts) / s / 1e6
		}
	}
	out.layers["harness.record_s"] = median(recS)
	out.layers["emu.record_mips"] = median(recMIPS)
	out.layers["metrics.trace_overhead_share"] = overhead(traced, untraced)
	return out, nil
}
