package harness

import (
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
)

// ProfiledRun couples one timing run's statistics with its per-PC cycle
// profile and the static program the profile indexes — everything the
// annotated-disassembly and flamegraph renderers need.
type ProfiledRun struct {
	Stats   *ooo.Stats
	Profile *ooo.Profile
	Prog    *isa.Program
}

// ProfileKernel runs one cipher-kernel session with per-PC profiling
// enabled. The instruction stream comes from the trace cache, so a cell
// that has already been timed (or profiled) replays without re-running
// the functional emulator, and a profiled replay is bit-identical to a
// profiled live run (pinned in profile_test.go).
func ProfileKernel(cipher string, feat isa.Feature, cfg ooo.Config, sessionBytes int, seed int64) (*ProfiledRun, error) {
	pr := &ProfiledRun{}
	st, err := TimeKernelObserved(cipher, feat, cfg, sessionBytes, seed, pr.attach)
	return pr.done(st, err)
}

// ProfileWorkload profiles a prepared workload on the live functional
// emulator, bypassing the trace cache — the reference the replay-
// concordance test compares ProfileKernel against.
func ProfileWorkload(w *Workload, feat isa.Feature, cfg ooo.Config) (*ProfiledRun, error) {
	pr := &ProfiledRun{}
	st, err := TimeWorkloadObserved(w, feat, cfg, pr.attach)
	return pr.done(st, err)
}

// attach is the observer of a profiled run: it enables per-PC profiling
// on the warmed engine.
func (pr *ProfiledRun) attach(e *ooo.Engine) {
	pr.Profile = e.EnableProfile()
	pr.Prog = e.Program()
}

// done completes a profiled run with its statistics.
func (pr *ProfiledRun) done(st *ooo.Stats, err error) (*ProfiledRun, error) {
	if err != nil {
		return nil, err
	}
	pr.Stats = st
	return pr, nil
}
