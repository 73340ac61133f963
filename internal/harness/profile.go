package harness

import (
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
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
	k, err := kernels.Get(cipher)
	if err != nil {
		return nil, err
	}
	src, codeLen, err := StreamKernel(cipher, feat, sessionBytes, seed)
	if err != nil {
		return nil, err
	}
	eng := ooo.NewEngine(cfg, src)
	eng.WarmData(kernels.CtxAddr, k.CtxBytes)
	eng.WarmCode(codeLen)
	prof := eng.EnableProfile(codeLen)
	st, err := meteredRun(eng, cfg, cipher, feat)
	if err != nil {
		return nil, err
	}
	return &ProfiledRun{Stats: st, Profile: prof, Prog: src.Program()}, nil
}

// ProfileWorkload profiles a prepared workload on the live functional
// emulator, bypassing the trace cache — the reference the replay-
// concordance test compares ProfileKernel against.
func ProfileWorkload(w *Workload, feat isa.Feature, cfg ooo.Config) (*ProfiledRun, error) {
	k, err := kernels.Get(w.Cipher)
	if err != nil {
		return nil, err
	}
	m, err := Prepare(w, feat)
	if err != nil {
		return nil, err
	}
	eng := ooo.NewEngine(cfg, &ooo.MachineStream{M: m})
	eng.WarmData(kernels.CtxAddr, k.CtxBytes)
	eng.WarmCode(len(m.Prog.Code))
	prof := eng.EnableProfile(len(m.Prog.Code))
	st, err := meteredRun(eng, cfg, w.Cipher, feat)
	if err != nil {
		return nil, err
	}
	return &ProfiledRun{Stats: st, Profile: prof, Prog: m.Prog}, nil
}
