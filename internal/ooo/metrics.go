package ooo

import (
	"time"

	"cryptoarch/internal/metrics"
)

// EngineVersion identifies the timing-model generation for persistent
// result keying (the content-addressed result store). Bump it whenever a
// change alters the simulated statistics of any (cipher, feature, config,
// session, seed) cell — the golden-stats tests define "alters" — so
// archived measurements from different engine generations are never
// compared as if they were the same experiment.
const EngineVersion = "ooo-v1"

// SetMetrics attaches a telemetry registry to the engine. At run
// completion the engine accumulates its simulated totals and wall time
// onto the registry; nothing is touched in the per-cycle hot loop, so
// steady-state simulation stays allocation-free with metrics attached
// (pinned by TestMetricsZeroAllocs). A nil registry (the default)
// disables this entirely — the only cost is one nil check per Run.
func (e *Engine) SetMetrics(r *metrics.Registry) { e.metrics = r }

// runMetered wraps run with wall-time measurement and counter updates.
func (e *Engine) runMetered() (*Stats, error) {
	m := e.metrics
	start := time.Now()
	st, err := e.run()
	elapsed := time.Since(start)
	m.Counter("ooo.runs").Inc()
	m.Histogram("ooo.run_ns").Observe(elapsed.Nanoseconds())
	if err != nil {
		m.Counter("ooo.run_errors").Inc()
		return st, err
	}
	m.Counter("ooo.insts").Add(int64(st.Instructions))
	m.Counter("ooo.cycles").Add(int64(st.Cycles))
	m.Counter("ooo.runs." + e.cfg.Name).Inc()
	return st, nil
}
