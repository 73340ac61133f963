package harness

import (
	"math"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/metrics"
	"cryptoarch/internal/ooo"
)

// Interval sampling simulates only K representative measurement windows
// of a session's recorded trace (each preceded by a warmup prefix) and
// extrapolates the whole-session statistics from them — the methodology
// that makes billion-instruction sessions sweepable at a bounded per-cell
// budget. The windows are spaced evenly through the trace, so periodic
// phase behaviour (block boundaries, key-schedule reuse) is sampled
// across its period. They run one after another in the calling goroutine:
// inside a sweep every core is already held by a cell. The estimate comes
// with a measured dispersion bound: the relative spread of per-interval
// CPI, which the error-bound test validates against exact runs across all
// eight ciphers.

// Default sampling parameters (used when the SampleOptions field is 0).
const (
	DefaultSampleIntervals     = 8
	DefaultSampleIntervalInsts = 32768
	// DefaultSampleWarmupInsts is the per-window warmup prefix. Sized so
	// the 8 KB L1, the TLB and the branch-predictor tables see a
	// representative working set before each window is measured.
	DefaultSampleWarmupInsts = 16384
)

// SampleOptions configures TimeKernelSampled.
type SampleOptions struct {
	// Intervals is K, the number of measurement windows (0 =
	// DefaultSampleIntervals).
	Intervals int
	// IntervalInsts is L, the measured length of each window in
	// instructions (0 = DefaultSampleIntervalInsts).
	IntervalInsts int
	// WarmupInsts is the per-window warmup prefix (0 =
	// DefaultSampleWarmupInsts, negative = none).
	WarmupInsts int
}

// SampleReport describes a sampled run and its measured error bound.
type SampleReport struct {
	Intervals     int     `json:"intervals"`
	IntervalInsts int     `json:"interval_insts"`
	WarmupInsts   int     `json:"warmup_insts"`
	TotalInsts    uint64  `json:"total_insts"`
	SampledInsts  uint64  `json:"sampled_insts"`
	Coverage      float64 `json:"coverage"` // SampledInsts / TotalInsts
	// RelErrBound is the measured dispersion bound on the extrapolated
	// cycle count: 2*sd/(sqrt(K)*mean) over the per-interval CPIs — two
	// standard errors of the mean, relative. Zero when K < 2 or when the
	// run was exact.
	RelErrBound float64 `json:"rel_err_bound"`
	// Exact is set when sampling would have covered the whole session (or
	// the trace could not be addressed), so the serial exact path ran
	// instead and the returned Stats carry no extrapolation error.
	Exact bool `json:"exact"`
}

// TimeKernelSampled times one cipher-kernel session by simulating K
// warmup-preceded intervals of its recorded trace and extrapolating the
// whole-session Stats. Instructions is exact (the trace length); Cycles
// and the other counters are scaled estimates whose measured dispersion
// bound rides in the report. Falls back to the exact serial path when the
// sample would cover the session anyway, or when the trace cannot be
// retained whole.
func TimeKernelSampled(cipher string, feat isa.Feature, cfg ooo.Config, sessionBytes int, seed int64, opt SampleOptions) (*ooo.Stats, *SampleReport, error) {
	tr, codeLen, err := traces.traceFor(traceKey{cipher: cipher, feat: feat, session: sessionBytes, seed: seed, mode: modeEncrypt})
	if err != nil {
		return nil, nil, err
	}
	kern, err := kernels.Get(cipher)
	if err != nil {
		return nil, nil, err
	}

	k := opt.Intervals
	if k <= 0 {
		k = DefaultSampleIntervals
	}
	l := opt.IntervalInsts
	if l <= 0 {
		l = DefaultSampleIntervalInsts
	}
	w := opt.WarmupInsts
	switch {
	case w == 0:
		w = DefaultSampleWarmupInsts
	case w < 0:
		w = 0
	}

	n := 0
	if tr != nil {
		n = len(tr.Recs)
	}
	// Exact fallback: no addressable trace, or the windows would tile the
	// whole session anyway (stride <= measured length), so sampling buys
	// nothing and the exact run is strictly better.
	if tr == nil || k >= n || n/k <= l {
		if reg := Metrics(); reg != nil {
			reg.Counter("sample.exact_fallbacks").Inc()
		}
		st, err := TimeKernel(cipher, feat, cfg, sessionBytes, seed)
		if err != nil {
			return nil, nil, err
		}
		return st, &SampleReport{
			Intervals: 1, TotalInsts: st.Instructions, SampledInsts: st.Instructions,
			Coverage: 1, Exact: true,
		}, nil
	}

	if reg := Metrics(); reg != nil {
		reg.Counter("sample.runs").Inc()
		reg.Counter("sample.intervals").Add(int64(k))
	}
	tl := CurrentTimeline()
	sp := metrics.NoSpan
	if tl != nil {
		sp = tl.Begin("sampled", "sampled "+cfg.Name+" "+cipher+"/"+feat.String())
	}
	defer tl.End(sp)

	// Sum the measured windows and collect per-interval CPIs.
	sum := &ooo.Stats{Config: cfg.Name}
	cpis := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		// Interval boundary: a cancelled run stops before its next window.
		if err := Cancelled(); err != nil {
			return nil, nil, err
		}
		isp := metrics.NoSpan
		if tl != nil {
			isp = tl.Begin("interval", "interval "+cfg.Name)
		}
		start := i * n / k
		st, err := runWindow(tr, codeLen, kern.CtxBytes, cfg, start, start+l, min(w, start))
		tl.End(isp)
		if err != nil {
			return nil, nil, err
		}
		sum.Accumulate(st)
		if st.Instructions > 0 {
			cpis = append(cpis, float64(st.Cycles)/float64(st.Instructions))
		}
	}

	est, rep := extrapolate(sum, cpis, uint64(n), cfg)
	rep.Intervals, rep.IntervalInsts, rep.WarmupInsts = k, l, w
	if reg := Metrics(); reg != nil {
		// Parts-per-million so the power-of-two histogram buckets resolve
		// sub-percent bounds.
		reg.Histogram("sample.rel_err_bound_ppm").Observe(int64(rep.RelErrBound * 1e6))
	}
	return est, rep, nil
}

// runWindow replays the records [start-warm, end) of tr and returns the
// measured epoch [start, end); the warm records before start are the
// warmup prefix. The window is a zero-copy view of the trace's immutable
// record slab.
func runWindow(tr *emu.Trace, codeLen, ctxBytes int, cfg ooo.Config, start, end, warm int) (*ooo.Stats, error) {
	eng := ooo.NewEngine(cfg, tr.StreamAt(start-warm, end))
	eng.WarmData(kernels.CtxAddr, ctxBytes)
	eng.WarmCode(codeLen)
	eng.SetWarmup(uint64(warm))
	eng.SetMetrics(Metrics())
	return eng.Run()
}

// extrapolate scales the summed window stats to the whole session and
// computes the measured dispersion bound.
func extrapolate(sum *ooo.Stats, cpis []float64, totalInsts uint64, cfg ooo.Config) (*ooo.Stats, *SampleReport) {
	sampled := sum.Instructions
	f := float64(totalInsts) / float64(sampled)
	scale := func(v uint64) uint64 { return uint64(math.Round(float64(v) * f)) }

	est := &ooo.Stats{Config: cfg.Name}
	est.Cycles = scale(sum.Cycles)
	est.Instructions = totalInsts // exact: the trace length is known
	for i := range est.ClassCounts {
		est.ClassCounts[i] = scale(sum.ClassCounts[i])
	}
	est.Branches = scale(sum.Branches)
	est.Mispredicts = scale(sum.Mispredicts)
	est.Loads = scale(sum.Loads)
	est.Stores = scale(sum.Stores)
	est.SboxAccesses = scale(sum.SboxAccesses)
	est.SboxHits = scale(sum.SboxHits)
	est.DL1Misses = scale(sum.DL1Misses)
	est.L2Misses = scale(sum.L2Misses)
	est.TLBMisses = scale(sum.TLBMisses)

	// Scale the stall buckets, then repair the rounding residue so the
	// slot identity Slots() == Cycles*IssueWidth survives extrapolation on
	// finite-width machines (the residue lands in the largest bucket,
	// where it is relatively smallest).
	if sum.Stalls.Slots() > 0 {
		largest, largestV := 0, uint64(0)
		var got uint64
		for i := range est.Stalls {
			est.Stalls[i] = scale(sum.Stalls[i])
			got += est.Stalls[i]
			if est.Stalls[i] > largestV {
				largest, largestV = i, est.Stalls[i]
			}
		}
		want := est.Cycles * uint64(cfg.IssueWidth)
		est.Stalls[largest] += want - got // two's-complement safe either sign
	}

	// Dispersion bound: two relative standard errors of the per-interval
	// CPI mean.
	bound := 0.0
	if len(cpis) >= 2 {
		var mean float64
		for _, c := range cpis {
			mean += c
		}
		mean /= float64(len(cpis))
		var varsum float64
		for _, c := range cpis {
			d := c - mean
			varsum += d * d
		}
		sd := math.Sqrt(varsum / float64(len(cpis)-1))
		if mean > 0 {
			bound = 2 * sd / (math.Sqrt(float64(len(cpis))) * mean)
		}
	}

	return est, &SampleReport{
		TotalInsts:   totalInsts,
		SampledInsts: sampled,
		Coverage:     float64(sampled) / float64(totalInsts),
		RelErrBound:  bound,
	}
}
