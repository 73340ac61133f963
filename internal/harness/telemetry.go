package harness

// This file is the telemetry wiring: the harness owns the process-wide
// metrics registry and span timeline that the trace cache, the timing
// engine and the sweep scheduler report into. The registry defaults to a
// live one — the trace-cache counters have always been on, and
// perfbench and asplos2000 -json depend on them — while the timeline
// defaults to nil (off).
//
// Setting the registry to nil disables all telemetry: every instrumented
// site degrades to nil-handle no-ops, and simulated statistics and
// steady-state allocation counts are bit-identical to an uninstrumented
// run (pinned by TestMetricsDisabledBitIdentical and the zero-alloc
// tests).

import (
	"sync/atomic"

	"cryptoarch/internal/metrics"
	"cryptoarch/internal/store"
)

var (
	regPtr atomic.Pointer[metrics.Registry]
	tlPtr  atomic.Pointer[metrics.Timeline]
)

func init() {
	SetMetrics(metrics.NewRegistry())
}

// SetMetrics installs the process-wide telemetry registry (nil disables
// telemetry) and returns the previous one, so tests and benchmarks can
// swap in a scratch registry and restore.
func SetMetrics(r *metrics.Registry) (prev *metrics.Registry) {
	prev = regPtr.Swap(r)
	rebindTraceCounters(r)
	store.Rebind(r)
	return prev
}

// Metrics returns the current registry (nil when telemetry is disabled).
// Handles from it stay valid across SetMetrics; they just stop being read.
func Metrics() *metrics.Registry { return regPtr.Load() }

// SetTimeline installs the span timeline sweep execution reports into
// (nil, the default, disables span tracing) and returns the previous one.
func SetTimeline(t *metrics.Timeline) (prev *metrics.Timeline) {
	return tlPtr.Swap(t)
}

// CurrentTimeline returns the installed timeline, or nil when span
// tracing is off.
func CurrentTimeline() *metrics.Timeline { return tlPtr.Load() }
