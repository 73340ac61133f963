package main

import (
	"slices"
	"sync"
	"time"
)

// The benchmark host is a shared 2-vCPU guest whose speed for the
// simulator drifts by up to 2x over minutes, with the load of other guests
// on the same cores: between two sets of runs ten minutes apart the same
// code can read 40% faster. No statistic inside one run removes that, so
// the end-to-end timings are scaled by a fixed reference computation timed
// in the same run, at the same repetition boundaries, on as many
// goroutines as the timed work uses. A timing in "s" is then seconds at
// the host speed on which the reference takes refNominal; the raw
// reference time is reported per layer as host.ref_ms.
//
// The reference sorts refLen pseudo-random ints: branchy, cache-resident
// work that slows with the simulator when the host is contended (over 2 s
// blocks of a 4-minute probe its time tracked blowfish/4W replay time with
// correlation 0.88), and code that no change to the simulator touches.
const (
	refLen     = 200_000
	refReps    = 3
	refNominal = 17 * time.Millisecond // one sort on a quiet phase of the host
)

// hostRef samples the reference computation during a run.
type hostRef struct {
	workers int           // goroutines sorting at once
	every   time.Duration // least time between samples taken by tick
	last    time.Time
	src     []int
	scratch [][]int
	ms      []float64 // one per sort
}

func newHostRef(workers int, every time.Duration) *hostRef {
	h := &hostRef{workers: workers, every: every, src: make([]int, refLen)}
	x := uint64(88172645463325252)
	for i := range h.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.src[i] = int(x >> 1)
	}
	for range workers {
		h.scratch = append(h.scratch, make([]int, refLen))
	}
	return h
}

// tick samples the reference when every has passed since the last sample.
func (h *hostRef) tick() {
	if h.last.IsZero() || time.Since(h.last) >= h.every {
		h.sample()
	}
}

// sample times refReps sorts on each of the workers, all at once. A
// single worker sorts on the calling goroutine, so a caller locked to its
// OS thread times the reference on the thread its own work runs on.
func (h *hostRef) sample() {
	durs := make([][]time.Duration, h.workers)
	sortAll := func(w int) {
		buf := h.scratch[w]
		for range refReps {
			copy(buf, h.src)
			t := time.Now()
			slices.Sort(buf)
			durs[w] = append(durs[w], time.Since(t))
		}
	}
	if h.workers == 1 {
		sortAll(0)
	} else {
		var wg sync.WaitGroup
		for w := range h.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sortAll(w)
			}()
		}
		wg.Wait()
	}
	for _, ds := range durs {
		for _, d := range ds {
			h.ms = append(h.ms, float64(d)/1e6)
		}
	}
	h.last = time.Now()
}

// meanMS is the mean reference time in milliseconds (0 before a sample).
func (h *hostRef) meanMS() float64 { return mean(h.ms) }

// scale converts a time measured during the run into seconds at the
// reference host speed: refNominal over the run's mean reference time.
func (h *hostRef) scale() float64 {
	m := h.meanMS()
	if m == 0 {
		return 1
	}
	return float64(refNominal) / 1e6 / m
}
