// Package harness couples the cipher kernels to the timing model: it
// prepares deterministic workloads, warms the memory system the way the
// paper's measurement methodology implies (key setup has just written the
// context; the kernel code has executed before), and runs the cycle-level
// engine.
package harness

import (
	"fmt"
	"math/rand"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/metrics"
	"cryptoarch/internal/ooo"
)

// Workload is a deterministic session: key, IV and plaintext derived from
// a seed.
type Workload struct {
	Cipher string
	Seed   int64 // the seed the session was derived from
	Key    []byte
	IV     []byte
	Plain  []byte
}

// NewWorkload builds a session workload for a cipher. The session length
// must be positive and, for block ciphers, a whole number of blocks —
// CBC has no partial-block semantics here, and an unchecked length would
// surface as a panic deep inside the golden model.
func NewWorkload(cipher string, sessionBytes int, seed int64) (*Workload, error) {
	k, err := kernels.Get(cipher)
	if err != nil {
		return nil, err
	}
	if sessionBytes <= 0 {
		return nil, fmt.Errorf("harness: session length %d bytes: must be positive", sessionBytes)
	}
	if k.BlockBytes > 1 && sessionBytes%k.BlockBytes != 0 {
		return nil, fmt.Errorf("harness: session length %d bytes: %s works in %d-byte blocks",
			sessionBytes, cipher, k.BlockBytes)
	}
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{Cipher: cipher, Seed: seed}
	w.Key = make([]byte, k.KeyBytes)
	rng.Read(w.Key)
	if k.BlockBytes > 1 {
		w.IV = make([]byte, k.BlockBytes)
		rng.Read(w.IV)
	}
	w.Plain = make([]byte, sessionBytes)
	rng.Read(w.Plain)
	return w, nil
}

// Prepare returns a ready-to-run functional machine for the workload.
func Prepare(w *Workload, feat isa.Feature) (*emu.Machine, error) {
	k, err := kernels.Get(w.Cipher)
	if err != nil {
		return nil, err
	}
	m, _, err := kernels.NewRun(k, feat, w.Key, w.IV, w.Plain)
	return m, err
}

// RunObserver instruments the timing engine immediately before a run
// starts — e.g. to attach an ooo.Tracer, or to capture the engine for
// interval statistics. A nil observer is ignored.
type RunObserver func(*ooo.Engine)

// TracerObserver is the common case: an observer that attaches a
// pipeline-event tracer to the engine.
func TracerObserver(t ooo.Tracer) RunObserver {
	return func(e *ooo.Engine) { e.SetTracer(t) }
}

// runEngine is the sequence every timing entry point shares: build the
// engine over src, warm ctxBytes of kernel context (0 warms none) and
// codeLen instructions of code, hand the warmed engine to obs (when
// non-nil), and run it with the process telemetry attached. Run totals
// accumulate onto the metrics registry, and when a span timeline is
// installed the run appears as a replay-phase span (nested in the sweep
// cell that requested it). With telemetry off this adds one nil check and
// one atomic load per run.
func runEngine(src ooo.Stream, codeLen, ctxBytes int, cfg ooo.Config, cipher string, feat isa.Feature, obs RunObserver) (*ooo.Stats, error) {
	eng := ooo.NewEngine(cfg, src)
	if ctxBytes > 0 {
		eng.WarmData(kernels.CtxAddr, ctxBytes)
	}
	eng.WarmCode(codeLen)
	if obs != nil {
		obs(eng)
	}
	eng.SetMetrics(Metrics())
	tl := CurrentTimeline()
	sp := metrics.NoSpan
	if tl != nil {
		sp = tl.Begin("replay", "run "+cfg.Name+" "+cipher+"/"+feat.String())
	}
	st, err := eng.Run()
	tl.End(sp)
	return st, err
}

// TimeKernel runs one cipher-kernel session on a machine configuration and
// returns the timing statistics.
func TimeKernel(cipher string, feat isa.Feature, cfg ooo.Config, sessionBytes int, seed int64) (*ooo.Stats, error) {
	return TimeKernelObserved(cipher, feat, cfg, sessionBytes, seed, nil)
}

// TimeKernelObserved is TimeKernel with a RunObserver hooked in between
// engine construction and the run. The instruction stream comes from the
// trace cache: the first run of a (cipher, feat, session, seed) cell
// records the emulation, subsequent runs (other machine models of the
// same cell) replay it.
func TimeKernelObserved(cipher string, feat isa.Feature, cfg ooo.Config, sessionBytes int, seed int64, obs RunObserver) (*ooo.Stats, error) {
	k, err := kernels.Get(cipher)
	if err != nil {
		return nil, err
	}
	src, codeLen, err := StreamKernel(cipher, feat, sessionBytes, seed)
	if err != nil {
		return nil, err
	}
	return runEngine(src, codeLen, k.CtxBytes, cfg, cipher, feat, obs)
}

// TimeWorkload times a prepared workload.
func TimeWorkload(w *Workload, feat isa.Feature, cfg ooo.Config) (*ooo.Stats, error) {
	return TimeWorkloadObserved(w, feat, cfg, nil)
}

// TimeWorkloadObserved times a prepared workload on the live functional
// emulator, calling obs (when non-nil) on the warmed engine before the
// run starts.
func TimeWorkloadObserved(w *Workload, feat isa.Feature, cfg ooo.Config, obs RunObserver) (*ooo.Stats, error) {
	k, err := kernels.Get(w.Cipher)
	if err != nil {
		return nil, err
	}
	m, err := Prepare(w, feat)
	if err != nil {
		return nil, err
	}
	return TimeMachine(m, k.CtxBytes, cfg, w.Cipher, feat, obs)
}

// TimeMachine times a ready-to-run functional machine live, through the
// same warm, meter and span sequence as every other run: it warms
// ctxBytes of context at kernels.CtxAddr and the machine's code. name and
// feat label the run's span. It is the path for sessions that are timed
// once — a single-use encryption cell, every decryption and key-setup
// session, the RSA handshake — where recording a trace would buy no
// replay.
func TimeMachine(m *emu.Machine, ctxBytes int, cfg ooo.Config, name string, feat isa.Feature, obs RunObserver) (*ooo.Stats, error) {
	return runEngine(&ooo.MachineStream{M: m}, len(m.Prog.Code), ctxBytes, cfg, name, feat, obs)
}

// TimeDecrypt runs one decryption session (golden-encrypted ciphertext
// through the AXP64 decryption kernel) on a machine configuration, on a
// live machine. The paper's footnote 1 observes encryption and decryption
// perform comparably; this lets that be verified.
func TimeDecrypt(cipher string, feat isa.Feature, cfg ooo.Config, sessionBytes int, seed int64) (*ooo.Stats, error) {
	k, err := kernels.Get(cipher)
	if err != nil {
		return nil, err
	}
	w, err := NewWorkload(cipher, sessionBytes, seed)
	if err != nil {
		return nil, err
	}
	ct, err := k.Encrypt(w.Key, w.IV, w.Plain)
	if err != nil {
		return nil, err
	}
	m, _, err := kernels.NewDecRun(k, feat, w.Key, w.IV, ct)
	if err != nil {
		return nil, err
	}
	return TimeMachine(m, k.CtxBytes, cfg, cipher, feat, nil)
}

// CountKernel returns the dynamic instruction count of the workload (the
// 1-CPI machine of Figure 4). It runs through the trace cache, so the
// count both reuses and seeds the recording the timing models replay.
func CountKernel(cipher string, feat isa.Feature, sessionBytes int, seed int64) (uint64, error) {
	src, _, err := StreamKernel(cipher, feat, sessionBytes, seed)
	if err != nil {
		return 0, err
	}
	if ss, ok := src.(ooo.SizedStream); ok {
		return uint64(ss.InstCount()), nil
	}
	var n uint64
	for {
		recs, ok := src.Next()
		if !ok {
			return n, nil
		}
		n += uint64(len(recs))
	}
}

// TimeSetup times a cipher's key-setup program on a live machine. Its
// context starts cold: the program is what writes the expanded key.
func TimeSetup(cipher string, feat isa.Feature, cfg ooo.Config, seed int64) (*ooo.Stats, error) {
	m, err := PrepareSetup(cipher, feat, seed)
	if err != nil {
		return nil, err
	}
	return TimeMachine(m, 0, cfg, cipher, feat, nil)
}

// PrepareSetup returns a ready-to-run key-setup machine for the cipher,
// with the key and IV TimeSetup derives from seed.
func PrepareSetup(cipher string, feat isa.Feature, seed int64) (*emu.Machine, error) {
	k, err := kernels.Get(cipher)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	key := make([]byte, k.KeyBytes)
	rng.Read(key)
	iv := make([]byte, max(k.BlockBytes, 8))
	rng.Read(iv)
	m, _, err := kernels.NewSetupRun(k, feat, key, iv)
	return m, err
}
