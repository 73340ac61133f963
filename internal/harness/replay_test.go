package harness_test

import (
	"bytes"
	"fmt"
	"testing"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
)

var (
	replayCiphers = []string{"3des", "blowfish", "idea", "mars", "rc4", "rc6", "rijndael", "twofish"}
	replayFeats   = []struct {
		name string
		feat isa.Feature
	}{
		{"norot", isa.FeatNoRot},
		{"rot", isa.FeatRot},
		{"opt", isa.FeatOpt},
	}
	replayModels = []ooo.Config{ooo.FourWide, ooo.FourWidePlus, ooo.EightWidePlus, ooo.Dataflow}
)

// TestReplayEquivalence is the PR's correctness pin: for every cipher ×
// ISA variant × machine model, the statistics of a run fed by a cached
// replayed trace are byte-identical — including the full stall
// breakdown — to a run fed by the live functional emulator.
func TestReplayEquivalence(t *testing.T) {
	harness.ResetTraceCache()
	defer harness.ResetTraceCache()
	const session = 128
	const seed = 987

	for _, cipher := range replayCiphers {
		for _, fv := range replayFeats {
			// Live reference: bypasses the trace cache entirely.
			w, err := harness.NewWorkload(cipher, session, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range replayModels {
				name := fmt.Sprintf("%s/%s/%s", cipher, fv.name, cfg.Name)
				live, err := harness.TimeWorkload(w, fv.feat, cfg)
				if err != nil {
					t.Fatalf("%s live: %v", name, err)
				}
				replayed, err := harness.TimeKernel(cipher, fv.feat, cfg, session, seed)
				if err != nil {
					t.Fatalf("%s replay: %v", name, err)
				}
				ls, rs := fmt.Sprintf("%+v", *live), fmt.Sprintf("%+v", *replayed)
				if ls != rs {
					t.Errorf("%s: replayed stats differ from live\nlive   %s\nreplay %s", name, ls, rs)
				}
			}
		}
	}

	// The comparison is only meaningful if the cached path actually
	// replayed: each cell records once and replays for the other models.
	st := harness.ReadTraceCacheStats()
	if st.Records == 0 || st.Replays <= st.Records {
		t.Fatalf("trace cache did not replay: %+v", st)
	}
}

// TestReplayTraceConcordance pins the observability contract: a pipeline
// tracer attached to a replayed run emits byte-identical JSONL events to
// one attached to a live-emulation run — same isa.Inst view, same cycles.
func TestReplayTraceConcordance(t *testing.T) {
	harness.ResetTraceCache()
	defer harness.ResetTraceCache()
	const session = 128
	const seed = 987

	w, err := harness.NewWorkload("blowfish", session, seed)
	if err != nil {
		t.Fatal(err)
	}
	var liveBuf bytes.Buffer
	lt := ooo.NewJSONLTracer(&liveBuf)
	if _, err := harness.TimeWorkloadObserved(w, isa.FeatRot, ooo.FourWide, harness.TracerObserver(lt)); err != nil {
		t.Fatal(err)
	}
	if err := lt.Flush(); err != nil {
		t.Fatal(err)
	}

	// Prime the cache so the observed run below replays.
	if _, err := harness.TimeKernel("blowfish", isa.FeatRot, ooo.FourWide, session, seed); err != nil {
		t.Fatal(err)
	}
	var repBuf bytes.Buffer
	rt := ooo.NewJSONLTracer(&repBuf)
	if _, err := harness.TimeKernelObserved("blowfish", isa.FeatRot, ooo.FourWide, session, seed, harness.TracerObserver(rt)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}

	if liveBuf.Len() == 0 {
		t.Fatal("live tracer emitted nothing")
	}
	if !bytes.Equal(liveBuf.Bytes(), repBuf.Bytes()) {
		t.Fatalf("replayed pipeline trace differs from live trace (live %d bytes, replay %d bytes)",
			liveBuf.Len(), repBuf.Len())
	}
}

// TestTraceCacheStatsAccounting pins the cache counters perfbench reports:
// one record per key, one replay per run, record wall time accumulated.
func TestTraceCacheStatsAccounting(t *testing.T) {
	harness.ResetTraceCache()
	defer harness.ResetTraceCache()
	if _, err := harness.TimeKernel("rc4", isa.FeatRot, ooo.FourWide, 64, 7); err != nil {
		t.Fatal(err)
	}
	st := harness.ReadTraceCacheStats()
	if st.Records != 1 || st.Replays != 1 {
		t.Fatalf("first run should record once and replay once, got %+v", st)
	}
	if _, err := harness.TimeKernel("rc4", isa.FeatRot, ooo.FourWide, 64, 7); err != nil {
		t.Fatal(err)
	}
	st = harness.ReadTraceCacheStats()
	if st.Records != 1 || st.Replays != 2 {
		t.Fatalf("second run should hit the cached trace, got %+v", st)
	}
	if st.RecordTime <= 0 {
		t.Fatal("record time not accounted")
	}
}
