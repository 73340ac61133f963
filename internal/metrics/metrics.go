// Package metrics is the host-side telemetry layer of the simulator: typed
// counters, gauges and histograms behind a registry, and hierarchical
// span timelines of sweep execution.
//
// The package is a leaf (it imports only the standard library) so every
// layer — the timing engine, the trace cache, the sweep scheduler, the
// commands — can report into one registry without import cycles.
//
// Two properties are contractual and pinned by tests:
//
//   - Hot-path updates are allocation-free: Counter.Add, Gauge.Set and
//     Histogram.Observe perform only atomic operations on pre-allocated
//     state. Metric creation (Registry.Counter etc.) is the cold path.
//   - A disabled registry is literally zero cost: every method on a nil
//     *Registry, *Counter, *Gauge, *Histogram or *Timeline is a no-op, so
//     instrumented code needs no "is telemetry on" branches and simulation
//     results are bit-identical with telemetry on, off, or absent.
//
// Snapshot() renders the registry deterministically: metrics appear sorted
// by name, so two registries that saw the same updates serialize to the
// same bytes regardless of creation or update order.
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric (resettable only
// through Reset, for benchmark harnesses that time independent passes).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter in place; outstanding handles stay valid.
func (c *Counter) Reset() {
	if c != nil {
		c.v.Store(0)
	}
}

// Gauge is a last-value-wins float metric.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the value
}

// Set records the gauge value. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last value set (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Reset zeroes the gauge in place.
func (g *Gauge) Reset() {
	if g != nil {
		g.bits.Store(0)
	}
}

// histBuckets is the fixed bucket count of a histogram: power-of-two
// boundaries, bucket i counting values v with 2^(i-1) < v <= 2^i (bucket 0
// counts v <= 1). Fixed exponential buckets keep Observe allocation-free
// and make merged or compared snapshots line up without bucket
// negotiation; at nanosecond resolution they span ~584 years.
const histBuckets = 64

// Histogram accumulates an integer-valued distribution (typically
// nanoseconds) into power-of-two buckets.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64 // MaxInt64 sentinel while empty
	max     atomic.Int64 // MinInt64 sentinel while empty
	buckets [histBuckets]atomic.Uint64
}

// newHistogram returns an empty histogram with the min/max sentinels set.
func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	// bits.Len64(v-1) is the smallest i with v <= 2^i.
	i := bits.Len64(uint64(v - 1))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// BucketUpper returns the inclusive upper bound of bucket i (the "le"
// boundary reported in snapshots). The last bucket is unbounded and
// reports math.MaxInt64.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	return 1 << uint(i)
}

// Observe records one value. Allocation-free; no-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Reset zeroes the histogram in place.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Registry holds named metrics. The zero value is not usable; a nil
// *Registry is the disabled state: every method no-ops and hands out nil
// metric handles whose methods also no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a valid no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered metric in place. Handles held by
// instrumented code remain valid and keep reporting into the same metrics.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.Reset()
	}
	for _, h := range r.hists {
		h.Reset()
	}
}

// CounterSample is one counter in a snapshot.
type CounterSample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSample is one gauge in a snapshot.
type GaugeSample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// BucketSample is one non-empty histogram bucket: Count observations with
// value <= Le (and greater than the previous bucket's Le).
type BucketSample struct {
	Le    int64  `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSample is one histogram in a snapshot.
type HistogramSample struct {
	Name    string         `json:"name"`
	Count   uint64         `json:"count"`
	Sum     int64          `json:"sum"`
	Min     int64          `json:"min"`
	Max     int64          `json:"max"`
	Buckets []BucketSample `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time rendering of a registry, deterministic in
// shape: metrics sorted by name, empty buckets elided.
type Snapshot struct {
	Counters   []CounterSample   `json:"counters"`
	Gauges     []GaugeSample     `json:"gauges"`
	Histograms []HistogramSample `json:"histograms"`
}

// Snapshot captures every registered metric. On a nil registry it returns
// an empty (non-nil) snapshot. Values are read atomically per metric;
// concurrent updates land in either this snapshot or the next, never in a
// torn state.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   []CounterSample{},
		Gauges:     []GaugeSample{},
		Histograms: []HistogramSample{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSample{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSample{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		hs := HistogramSample{Name: name, Count: h.count.Load(), Sum: h.sum.Load()}
		if hs.Count > 0 {
			hs.Min = h.min.Load()
			hs.Max = h.max.Load()
		}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				hs.Buckets = append(hs.Buckets, BucketSample{Le: BucketUpper(i), Count: n})
			}
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
