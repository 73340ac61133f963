package ooo_test

import (
	"fmt"
	"testing"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
)

// TestResumeStreamEquivalence pins the oversized-session path — a
// recorded prefix followed by live execution, which is how Figure 6's
// longest 3DES and IDEA sessions run — to the other two ways of feeding
// the engine: the statistics of a resumed run, of a full replay and of a
// live MachineStream run are identical on every named model. The prefix
// length is not a multiple of the live batch size, so the hand-over from
// recorded to live records falls mid-batch.
func TestResumeStreamEquivalence(t *testing.T) {
	const (
		session = 256
		seed    = 4242
		prefix  = 3*emu.LiveBatchRecs + 77
	)
	for _, c := range []struct {
		cipher string
		feat   isa.Feature
	}{{"3des", isa.FeatRot}, {"idea", isa.FeatOpt}} {
		k, err := kernels.Get(c.cipher)
		if err != nil {
			t.Fatal(err)
		}
		w, err := harness.NewWorkload(c.cipher, session, seed)
		if err != nil {
			t.Fatal(err)
		}
		machine := func() *emu.Machine {
			m, err := harness.Prepare(w, c.feat)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		full, done := emu.Record(machine(), 0)
		if !done || full.Len() <= prefix {
			t.Fatalf("%s: full record done=%v with %d records, want a session longer than %d", c.cipher, done, full.Len(), prefix)
		}
		run := func(cfg ooo.Config, src ooo.Stream) string {
			e := ooo.NewEngine(cfg, src)
			e.WarmData(kernels.CtxAddr, k.CtxBytes)
			e.WarmCode(len(full.Prog.Code))
			st, err := e.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", c.cipher, cfg.Name, err)
			}
			return fmt.Sprintf("%+v", *st)
		}
		for _, cfg := range ooo.Models {
			m := machine()
			tr, complete := emu.Record(m, prefix)
			if complete || tr.Len() != prefix {
				t.Fatalf("%s: prefix record complete=%v len=%d, want an incomplete %d", c.cipher, complete, tr.Len(), prefix)
			}
			resumed := run(cfg, tr.Resume(m))
			replayed := run(cfg, full.Stream())
			live := run(cfg, &ooo.MachineStream{M: machine()})
			if resumed != replayed || live != replayed {
				t.Errorf("%s/%s: stats differ by stream\nresume %s\nreplay %s\nlive   %s", c.cipher, cfg.Name, resumed, replayed, live)
			}
		}
	}
}
