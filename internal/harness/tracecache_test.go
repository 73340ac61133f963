package harness

import (
	"testing"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
)

// TestReplayNeverWritesTrace pins the contract that lets the trace cache
// hash a trace only where it crosses the disk boundary: nothing that
// consumes a retained trace writes it. Every consumer replays cached
// traces here — exact timing on each model, interval sampling, instruction
// counting and per-PC profiling — and afterwards each entry must still
// hold the same *emu.Trace, its records equal to a copy taken before.
func TestReplayNeverWritesTrace(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	const session, seed = 1024, 5
	type held struct {
		k    traceKey
		tr   *emu.Trace
		recs []emu.TraceRec
	}
	var all []held
	for _, cipher := range []string{"3des", "blowfish", "rc4", "rijndael"} {
		for _, feat := range []isa.Feature{isa.FeatRot, isa.FeatOpt} {
			k := traceKey{cipher: cipher, feat: feat, session: session, seed: seed}
			tr, _, err := traces.traceFor(k)
			if err != nil || tr == nil {
				t.Fatalf("%s/%v: trace not retained (%v)", cipher, feat, err)
			}
			all = append(all, held{k, tr, traceRecs(tr)})
		}
	}

	models := []ooo.Config{ooo.FourWide, ooo.FourWidePlus, ooo.EightWidePlus, ooo.Dataflow}
	sample := SampleOptions{Intervals: 4, IntervalInsts: 1024, WarmupInsts: 512}
	for _, h := range all {
		c, f := h.k.cipher, h.k.feat
		for _, cfg := range models {
			if _, err := TimeKernel(c, f, cfg, session, seed); err != nil {
				t.Fatalf("%s/%v on %s: %v", c, f, cfg.Name, err)
			}
		}
		_, rep, err := TimeKernelSampled(c, f, ooo.FourWide, session, seed, sample)
		if err != nil {
			t.Fatalf("%s/%v sampled: %v", c, f, err)
		}
		if rep.Exact {
			t.Fatalf("%s/%v: sampled run fell back to exact (%d insts)", c, f, rep.TotalInsts)
		}
		if _, err := CountKernel(c, f, session, seed); err != nil {
			t.Fatalf("%s/%v count: %v", c, f, err)
		}
		if _, err := ProfileKernel(c, f, ooo.FourWide, session, seed); err != nil {
			t.Fatalf("%s/%v profile: %v", c, f, err)
		}
	}

	for _, h := range all {
		traces.mu.Lock()
		e := traces.entries[h.k]
		traces.mu.Unlock()
		if e == nil || e.tr != h.tr {
			t.Fatalf("%s/%v: the cache no longer holds the recorded trace", h.k.cipher, h.k.feat)
		}
		got := traceRecs(h.tr)
		if len(got) != len(h.recs) {
			t.Fatalf("%s/%v: trace holds %d records, recorded %d", h.k.cipher, h.k.feat, len(got), len(h.recs))
		}
		for i, r := range h.recs {
			if got[i] != r {
				t.Fatalf("%s/%v: replay wrote record %d: %+v, recorded %+v", h.k.cipher, h.k.feat, i, got[i], r)
			}
		}
	}
}

// traceRecs copies out every record of a trace, in order.
func traceRecs(tr *emu.Trace) []emu.TraceRec {
	out := make([]emu.TraceRec, 0, tr.Len())
	for s := tr.Stream(); ; {
		recs, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, recs...)
	}
}
