package main

import (
	"math"
	"slices"
	"sort"
	"time"

	"cryptoarch/internal/metrics"
)

// Pure derivations from raw measurements. They take plain values so the
// self-tests in derive_test.go can pin them on synthetic inputs.

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs and the number of samples it was taken over. An empty input yields
// (0, 0).
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n
}

// median is the middle sample (mean of the two middle ones for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the timing estimator of the end-to-end metrics: the mean of all
// of a run's repetitions (0 for none). On a shared 2-vCPU host the same
// replay runs at one speed or at about half of it, in phases lasting
// seconds to minutes. A run's fastest repetition then jumps between the
// two speeds depending on whether the run caught a fast moment, and its
// median does the same when the phases are near half and half; the mean
// moves only in proportion to the share of time spent in each phase.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// meanRate is mean for rates of repetitions of the same work: total work
// over total time, i.e. the harmonic mean of the rates (0 if any is 0).
func meanRate(rates []float64) float64 {
	if len(rates) == 0 || slices.Contains(rates, 0) {
		return 0
	}
	var inv float64
	for _, r := range rates {
		inv += 1 / r
	}
	return float64(len(rates)) / inv
}

// idleShare is the share of worker capacity a sweep left unused:
// 1 − busy / (workers × wall).
func idleShare(busy time.Duration, workers int, wall time.Duration) float64 {
	capacity := float64(workers) * float64(wall)
	if capacity <= 0 {
		return 0
	}
	return 1 - float64(busy)/capacity
}

// interval is a closed time range on one timeline.
type interval struct{ start, end time.Duration }

// unionLen is the total length covered by ivs, counting overlaps once.
func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// clip restricts iv to [lo, hi]; ok is false when nothing is left.
func clip(iv interval, lo, hi time.Duration) (interval, bool) {
	if iv.start < lo {
		iv.start = lo
	}
	if iv.end > hi {
		iv.end = hi
	}
	return iv, iv.end > iv.start
}

// spanSelf sums, over every span of category cat, the part of its
// duration that none of its direct children covers. Spans still open
// (End < 0) are skipped.
func spanSelf(spans []metrics.Span, cat string) time.Duration {
	children := map[metrics.SpanID][]interval{}
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	var self time.Duration
	for i, s := range spans {
		if s.Cat != cat || s.End < 0 {
			continue
		}
		var kids []interval
		for _, iv := range children[metrics.SpanID(i)] {
			if c, ok := clip(iv, s.Start, s.End); ok {
				kids = append(kids, c)
			}
		}
		self += s.End - s.Start - unionLen(kids)
	}
	return self
}

// unattributedShare is the part of workers × (sweep span duration) that no
// cell span covers: the conservation residue of the sweep's per-layer
// accounting, since every layer span nests inside a cell. Cell spans are
// grouped by track, clipped to the first closed sweep span, and their
// union taken per track so overlapping spans count once.
func unattributedShare(spans []metrics.Span, workers int) float64 {
	var sweep *metrics.Span
	for i := range spans {
		if spans[i].Cat == "sweep" && spans[i].End >= 0 {
			sweep = &spans[i]
			break
		}
	}
	if sweep == nil || workers < 1 || sweep.End <= sweep.Start {
		return 0
	}
	perTrack := map[int][]interval{}
	for _, s := range spans {
		if s.Cat != "cell" || s.End < 0 {
			continue
		}
		if c, ok := clip(interval{s.Start, s.End}, sweep.Start, sweep.End); ok {
			perTrack[s.Track] = append(perTrack[s.Track], c)
		}
	}
	var covered time.Duration
	for _, ivs := range perTrack {
		covered += unionLen(ivs)
	}
	return 1 - float64(covered)/(float64(workers)*float64(sweep.End-sweep.Start))
}

// relErr is |got − want| / want.
func relErr(got, want uint64) float64 {
	return math.Abs(float64(got)-float64(want)) / float64(want)
}

// boundMissed reports whether a sampled cell's reported error bound fails
// to cover its actual error.
func boundMissed(actualErr, bound float64) bool { return bound < actualErr }
