// Package harness couples the cipher kernels to the timing model: it
// prepares deterministic workloads, warms the memory system the way the
// paper's measurement methodology implies (key setup has just written the
// context; the kernel code has executed before), and runs the cycle-level
// engine.
package harness

import (
	"fmt"
	"math/rand"

	"cryptoarch/internal/ciphers"
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

// meteredRun attaches the process telemetry to a warmed engine and runs
// it: run totals accumulate onto the metrics registry, and when a span
// timeline is installed the run appears as a replay-phase span (nested in
// the sweep cell that requested it). With telemetry off this adds one nil
// check and one atomic load per run.
func meteredRun(eng *ooo.Engine, cfg ooo.Config, cipher string, feat isa.Feature) (*ooo.Stats, error) {
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
	eng := ooo.NewEngine(cfg, src)
	eng.WarmData(kernels.CtxAddr, k.CtxBytes)
	eng.WarmCode(codeLen)
	if obs != nil {
		obs(eng)
	}
	return meteredRun(eng, cfg, cipher, feat)
}

// TimeWorkload times a prepared workload.
func TimeWorkload(w *Workload, feat isa.Feature, cfg ooo.Config) (*ooo.Stats, error) {
	return TimeWorkloadObserved(w, feat, cfg, nil)
}

// TimeWorkloadObserved times a prepared workload, calling obs (when
// non-nil) on the warmed engine before the run starts.
func TimeWorkloadObserved(w *Workload, feat isa.Feature, cfg ooo.Config, obs RunObserver) (*ooo.Stats, error) {
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
	if obs != nil {
		obs(eng)
	}
	return meteredRun(eng, cfg, w.Cipher, feat)
}

// TimeDecrypt runs one decryption session (golden-encrypted ciphertext
// through the AXP64 decryption kernel) on a machine configuration. The
// paper's footnote 1 observes encryption and decryption perform
// comparably; this lets that be verified.
func TimeDecrypt(cipher string, feat isa.Feature, cfg ooo.Config, sessionBytes int, seed int64) (*ooo.Stats, error) {
	k, err := kernels.Get(cipher)
	if err != nil {
		return nil, err
	}
	src, codeLen, err := traces.stream(traceKey{cipher: cipher, feat: feat, session: sessionBytes, seed: seed, mode: modeDecrypt})
	if err != nil {
		return nil, err
	}
	eng := ooo.NewEngine(cfg, src)
	eng.WarmData(kernels.CtxAddr, k.CtxBytes)
	eng.WarmCode(codeLen)
	return meteredRun(eng, cfg, cipher, feat)
}

// goldenCiphertext encrypts the workload with the golden cipher.
func goldenCiphertext(w *Workload) ([]byte, error) {
	c, err := ciphers.Lookup(w.Cipher)
	if err != nil {
		return nil, err
	}
	ct := make([]byte, len(w.Plain))
	if c.Info.Stream {
		s, err := c.NewStream(w.Key)
		if err != nil {
			return nil, err
		}
		s.XORKeyStream(ct, w.Plain)
		return ct, nil
	}
	blk, err := c.NewBlock(w.Key)
	if err != nil {
		return nil, err
	}
	iv := append([]byte(nil), w.IV...)
	ciphers.CBCEncrypt(blk, iv, ct, w.Plain)
	return ct, nil
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

// TimeSetup times a cipher's key-setup program.
func TimeSetup(cipher string, feat isa.Feature, cfg ooo.Config, seed int64) (*ooo.Stats, error) {
	src, codeLen, err := traces.stream(traceKey{cipher: cipher, feat: feat, seed: seed, mode: modeSetup})
	if err != nil {
		return nil, err
	}
	eng := ooo.NewEngine(cfg, src)
	eng.WarmCode(codeLen)
	return meteredRun(eng, cfg, cipher, feat)
}
