package harness

// Cooperative cancellation. The supervised sweep installs its context
// here for the duration of a run; the interval sampler polls Cancelled()
// between windows and returns the context's error instead of starting the
// next one. A cell already inside the engine's cycle loop finishes
// normally: cancellation is cooperative and boundary-aligned, never
// preemptive, so every result that does land is exact and storable.

import (
	"context"
	"sync/atomic"
)

var runCtx atomic.Pointer[context.Context]

// SetRunContext installs the context cooperative checkpoints poll (nil
// disables checking) and returns the previous one so nested runs can
// restore it.
func SetRunContext(ctx context.Context) (prev context.Context) {
	var p *context.Context
	if ctx != nil {
		p = &ctx
	}
	old := runCtx.Swap(p)
	if old == nil {
		return nil
	}
	return *old
}

// RunContext returns the installed run context, or context.Background()
// when none is installed.
func RunContext() context.Context {
	if p := runCtx.Load(); p != nil {
		return *p
	}
	return context.Background()
}

// Cancelled returns the run context's error when the current run has been
// cancelled, nil otherwise. This is the single check every cooperative
// cancellation point calls.
func Cancelled() error {
	if p := runCtx.Load(); p != nil {
		return (*p).Err()
	}
	return nil
}
