// Command simbench measures the simulator's own speed — simulated MIPS
// per machine model, steady-state allocation rate, trace record/replay
// cost, persistent-store cold vs warm trace acquisition, interval
// sampling (speed and accuracy vs the serial golden run), and the serial
// vs parallel wall time of the full experiment sweep — and writes the
// result as machine-readable JSON (BENCH_PR8.json by default) so
// performance trajectories can be compared across commits.
// Every run also appends one record to a persistent ledger
// (.simledger/ledger.jsonl); -history reads the ledger back, compares the
// newest run against a rolling baseline of earlier comparable runs, and
// exits non-zero on a regression. With -check it also compares the fresh
// measurement against a committed baseline file and fails on a large
// regression.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"cryptoarch/internal/experiments"
	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/metrics"
	"cryptoarch/internal/ooo"
	"cryptoarch/internal/store"
)

// benchWorkload is the fixed measurement target (the bench_test.go
// workload): blowfish, rotate ISA, 4KB CBC session.
const (
	benchCipher  = "blowfish"
	benchSession = 4096
)

// resultSchemaVersion stamps the simbench JSON output; bump on field
// renames or meaning changes. Version 2 added ipc and stall_shares to the
// per-model block (the simulated workload's shape, so regressions can be
// attributed, not just detected).
const resultSchemaVersion = 2

// benchConfigID names the benchmark procedure in the ledger key: what was
// measured and how. Bump it if the measured model set or methodology
// changes, so old ledger records stop being compared against new ones.
const benchConfigID = "replay-bench 4W,4W+,8W+,DF"

// modelBench is one model's simulation-speed measurement. SecPerRun (and
// the derived SimMIPS) time a warm-trace-cache run — the cost every model
// after the first pays per cell — keeping the PR2 field names; the
// one-time functional-recording cost is reported separately at the top
// level as trace_record_seconds.
type modelBench struct {
	Model        string  `json:"model"`
	Instructions uint64  `json:"simulated_instructions"`
	Cycles       uint64  `json:"simulated_cycles"`
	SecPerRun    float64 `json:"seconds_per_run"`
	SimMIPS      float64 `json:"simulated_mips"`
	AllocsPerRun int64   `json:"allocs_per_run"`
	BytesPerRun  int64   `json:"bytes_per_run"`
	// IPC and StallShares describe the simulated workload itself (from the
	// warm-up run's commit-slot accounting); shares are absent on models
	// with no slot budget (DF).
	IPC         float64            `json:"ipc,omitempty"`
	StallShares map[string]float64 `json:"stall_shares,omitempty"`
}

type result struct {
	SchemaVersion      int          `json:"schema_version"`
	GoVersion          string       `json:"go_version"`
	GOMAXPROCS         int          `json:"gomaxprocs"`
	Workload           string       `json:"workload"`
	EngineVersion      string       `json:"engine_version"`
	LedgerKey          string       `json:"ledger_key,omitempty"`
	TraceRecordSeconds float64      `json:"trace_record_seconds"`
	Models             []modelBench `json:"models"`
	// SampledBench measures interval sampling against the serial models
	// above (same workload, same trace).
	SampledBench []sampleBench `json:"sampled_bench,omitempty"`
	// StoreBench measures the persistent store's trace tier: cold
	// (record + write-through persist) vs warm (fault-in from disk)
	// acquisition of the bench trace.
	StoreBench *storeBench `json:"store_bench,omitempty"`
	// TraceCache snapshots the harness cache counters after the per-model
	// benchmark loop: hit/miss traffic of the replay path under test.
	TraceCache           harness.TraceCacheStats `json:"trace_cache"`
	SweepCells           int                     `json:"sweep_cells"`
	SweepSerialSeconds   float64                 `json:"sweep_serial_seconds"`
	SweepParallelSeconds float64                 `json:"sweep_parallel_seconds"`
	SweepWorkers         int                     `json:"sweep_workers"`
	// Metrics snapshots the process telemetry registry (sweep scheduler,
	// trace cache, engine run totals, Go runtime) at exit.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// benchRecord times the one-off functional recording of the bench
// workload's trace (averaged over a few cold recordings).
func benchRecord() (float64, error) {
	const rounds = 5
	var total time.Duration
	for i := 0; i < rounds; i++ {
		harness.ResetTraceCache()
		if _, _, err := harness.StreamKernel(benchCipher, isa.FeatRot, benchSession, experiments.DefaultSeed); err != nil {
			return 0, err
		}
		total += harness.ReadTraceCacheStats().RecordTime
	}
	harness.ResetTraceCache()
	return total.Seconds() / rounds, nil
}

func benchModel(cfg ooo.Config) (modelBench, error) {
	// Warm the trace cache so the loop below measures pure replay+engine.
	st, err := harness.TimeKernel(benchCipher, isa.FeatRot, cfg, benchSession, experiments.DefaultSeed)
	if err != nil {
		return modelBench{}, err
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := harness.TimeKernel(benchCipher, isa.FeatRot, cfg, benchSession, experiments.DefaultSeed); err != nil {
				b.Fatal(err)
			}
		}
	})
	sec := r.T.Seconds() / float64(r.N)
	mb := modelBench{
		Model:        cfg.Name,
		Instructions: st.Instructions,
		Cycles:       st.Cycles,
		SecPerRun:    sec,
		SimMIPS:      float64(st.Instructions) / sec / 1e6,
		AllocsPerRun: r.AllocsPerOp(),
		BytesPerRun:  r.AllocedBytesPerOp(),
		StallShares:  st.Stalls.Shares(),
	}
	if st.Cycles > 0 {
		mb.IPC = float64(st.Instructions) / float64(st.Cycles)
	}
	return mb, nil
}

// sampleBench is one model's interval-sampling measurement. SimMIPS rates
// the instructions actually simulated (measured windows plus warmup);
// EffectiveSimMIPS rates the instructions the extrapolation represents —
// the throughput a sweep cell experiences.
type sampleBench struct {
	Model            string  `json:"model"`
	Intervals        int     `json:"intervals"`
	IntervalInsts    int     `json:"interval_insts"`
	WarmupInsts      int     `json:"warmup_insts"`
	Coverage         float64 `json:"coverage"`
	SecPerRun        float64 `json:"seconds_per_run"`
	SimMIPS          float64 `json:"simulated_mips"`
	EffectiveSimMIPS float64 `json:"effective_simulated_mips"`
	SpeedupVsSerial  float64 `json:"speedup_vs_serial"`
	CycleRelErr      float64 `json:"cycle_rel_err"`
	ReportedErrBound float64 `json:"reported_err_bound"`
}

func relErr(got, want uint64) float64 {
	d := float64(got) - float64(want)
	if d < 0 {
		d = -d
	}
	return d / float64(want)
}

// benchSampled measures interval sampling for one model against its
// serial measurement.
func benchSampled(cfg ooo.Config, serial modelBench, intervals int) (sampleBench, error) {
	// L=4096 keeps the per-window drain bias (the dominant error term, ~1/L)
	// a few percent; K=4 of them cover ~9% of the bench session.
	opt := harness.SampleOptions{Intervals: intervals, IntervalInsts: 4096, WarmupInsts: 2048}
	st, rep, err := harness.TimeKernelSampled(benchCipher, isa.FeatRot, cfg, benchSession, experiments.DefaultSeed, opt)
	if err != nil {
		return sampleBench{}, err
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := harness.TimeKernelSampled(benchCipher, isa.FeatRot, cfg, benchSession, experiments.DefaultSeed, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	sec := r.T.Seconds() / float64(r.N)
	simulated := rep.SampledInsts + uint64(rep.Intervals*rep.WarmupInsts)
	return sampleBench{
		Model:            cfg.Name,
		Intervals:        rep.Intervals,
		IntervalInsts:    rep.IntervalInsts,
		WarmupInsts:      rep.WarmupInsts,
		Coverage:         rep.Coverage,
		SecPerRun:        sec,
		SimMIPS:          float64(simulated) / sec / 1e6,
		EffectiveSimMIPS: float64(rep.TotalInsts) / sec / 1e6,
		SpeedupVsSerial:  serial.SecPerRun / sec,
		CycleRelErr:      relErr(st.Cycles, serial.Cycles),
		ReportedErrBound: rep.RelErrBound,
	}, nil
}

// storeBench is the persistent-store trace-tier measurement: per-round, a
// fresh store directory is populated cold (functional recording +
// write-through persist), the in-memory cache is dropped, and the same
// trace is acquired warm (disk fault-in: read + checksum + decode +
// validate). The cold/warm ratio is the incremental-sweep payoff per
// trace.
type storeBench struct {
	ColdSeconds float64 `json:"store_cold_seconds"`
	WarmSeconds float64 `json:"store_warm_seconds"`
	Speedup     float64 `json:"speedup_cold_over_warm"`
	// Stats snapshots the store counters of the final warm round (one
	// trace hit, zero misses, if the store behaved).
	Stats store.Stats `json:"stats"`
}

// benchStore runs the store cold/warm measurement in throwaway temp
// directories; the process-wide store installed by -store-dir (if any) is
// restored afterwards.
func benchStore() (*storeBench, error) {
	const rounds = 5
	prev := harness.CurrentStore()
	defer func() {
		harness.SetStore(prev)
		harness.ResetTraceCache()
	}()
	var cold, warm time.Duration
	var stats store.Stats
	for i := 0; i < rounds; i++ {
		dir, err := os.MkdirTemp("", "simstore-bench-*")
		if err != nil {
			return nil, err
		}
		s, err := store.Open(dir, 1<<30)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		harness.SetStore(s)
		harness.ResetTraceCache()
		start := time.Now()
		if _, _, err := harness.StreamKernel(benchCipher, isa.FeatRot, benchSession, experiments.DefaultSeed); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		cold += time.Since(start)
		harness.ResetTraceCache() // drop memory, keep disk
		start = time.Now()
		if _, _, err := harness.StreamKernel(benchCipher, isa.FeatRot, benchSession, experiments.DefaultSeed); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		warm += time.Since(start)
		stats = store.ReadStats()
		os.RemoveAll(dir)
	}
	sb := &storeBench{
		ColdSeconds: cold.Seconds() / rounds,
		WarmSeconds: warm.Seconds() / rounds,
		Stats:       stats,
	}
	if sb.WarmSeconds > 0 {
		sb.Speedup = sb.ColdSeconds / sb.WarmSeconds
	}
	return sb, nil
}

func timedSweep(ctx context.Context, workers int) float64 {
	experiments.ResetCache() // drops cell results and recorded traces
	prev := experiments.SetParallelism(workers)
	defer experiments.SetParallelism(prev)
	runtime.GC() // level the heap between passes so the second isn't charged the first's garbage
	start := time.Now()
	experiments.SweepObservedCtx(ctx, experiments.AllCells(), nil)
	return time.Since(start).Seconds()
}

// attributionLines renders the per-cause stall-share movement between two
// measurements of the same model — the differential view of *what the
// simulated workload was doing* on each side of a regression — or the
// honest reason no attribution is available (pre-v2 records carry no
// shares; fabricating a breakdown would be worse than silence).
func attributionLines(base, next map[string]float64) []string {
	deltas := metrics.AttributeShares(base, next)
	if deltas == nil {
		return []string{"    no stall shares recorded on one side (pre-v2 record) — re-run to capture attribution"}
	}
	var lines []string
	for _, d := range deltas {
		if d.Delta == 0 {
			continue
		}
		lines = append(lines, fmt.Sprintf("    %-9s %5.1f%% → %5.1f%%  (%+.1f pts of slot budget)",
			d.Cause, 100*d.Base, 100*d.Next, 100*d.Delta))
	}
	if len(lines) == 0 {
		return []string{"    stall shares identical — the workload's shape is unchanged; the slowdown is simulator overhead"}
	}
	return lines
}

// checkBaseline compares fresh finite-model sim-MIPS against a committed
// baseline file and reports every model that dropped below half, with the
// per-cause stall-share attribution for each regressing model (which
// bottleneck grew between the two measurements) rather than a bare ratio.
func checkBaseline(fresh []modelBench, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base result
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	baseModels := map[string]modelBench{}
	for _, m := range base.Models {
		baseModels[m.Model] = m
	}
	var bad []string
	for _, m := range fresh {
		if m.Model == "DF" {
			continue // infinite-window model: not part of the smoke gate
		}
		want, ok := baseModels[m.Model]
		if !ok || want.SimMIPS <= 0 {
			continue
		}
		if m.SimMIPS < 0.5*want.SimMIPS {
			bad = append(bad, fmt.Sprintf("%s: %.2f sim-MIPS < 50%% of baseline %.2f — stall-share attribution:", m.Model, m.SimMIPS, want.SimMIPS))
			bad = append(bad, attributionLines(want.StallShares, m.StallShares)...)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench regression vs %s:\n  %s", path, strings.Join(bad, "\n  "))
	}
	return nil
}

// checkAccuracy gates interval sampling on the accuracy it just measured
// against the serial golden run: extrapolated cycles within 15%. Failing
// here means the sampler drifted on the real bench workload.
func checkAccuracy(sampled []sampleBench) error {
	var bad []string
	for _, s := range sampled {
		if s.CycleRelErr > 0.15 {
			bad = append(bad, fmt.Sprintf("sampled %s: cycle error %.4f > 0.15", s.Model, s.CycleRelErr))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("sampling accuracy gate failed:\n  %v", bad)
	}
	return nil
}

// printTrends renders the trend table and returns the gated models that
// regressed (deduplicated, in table order), so the caller can attribute
// each one. DF (the infinite-window model) is excluded from gating like
// everywhere else in the repo's perf tripwires, but still printed.
func printTrends(trends []metrics.Trend) (regressed []string) {
	seen := map[string]bool{}
	fmt.Fprintf(os.Stderr, "%-4s %-11s %12s %12s %8s %s\n", "model", "metric", "baseline", "latest", "change", "verdict")
	for _, t := range trends {
		if t.Samples == 0 {
			fmt.Fprintf(os.Stderr, "%-4s %-11s %12s %12.2f %8s no history yet\n", t.Model, t.Metric, "-", t.Latest, "-")
			continue
		}
		verdict := "ok"
		if t.Regressed {
			verdict = "REGRESSED"
			if t.Model != "DF" {
				if !seen[t.Model] {
					seen[t.Model] = true
					regressed = append(regressed, t.Model)
				}
			} else {
				verdict = "REGRESSED (DF: not gated)"
			}
		}
		fmt.Fprintf(os.Stderr, "%-4s %-11s %12.2f %12.2f %+7.1f%% %s (%d samples)\n",
			t.Model, t.Metric, t.Baseline, t.Latest, 100*t.Change, verdict, t.Samples)
	}
	return regressed
}

// ledgerShares finds one model's stall-share map within a ledger record
// (nil when the model is absent or the record predates shares).
func ledgerShares(rec metrics.LedgerRecord, model string) map[string]float64 {
	for _, m := range rec.Models {
		if m.Model == model {
			return m.StallShares
		}
	}
	return nil
}

// printHistoryAttribution explains each regressed model of the newest
// ledger record against the most recent earlier comparable (same-key)
// record: per-cause stall-share deltas, so a -history trip names the
// bottleneck that moved instead of leaving a bare ratio.
func printHistoryAttribution(recs []metrics.LedgerRecord, regressed []string) {
	latest := recs[len(recs)-1]
	var prev *metrics.LedgerRecord
	for i := len(recs) - 2; i >= 0; i-- {
		if recs[i].Key == latest.Key {
			prev = &recs[i]
			break
		}
	}
	for _, model := range regressed {
		fmt.Fprintf(os.Stderr, "attribution %s (vs previous comparable record):\n", model)
		if prev == nil {
			fmt.Fprintln(os.Stderr, "    no earlier comparable record to attribute against")
			continue
		}
		for _, line := range attributionLines(ledgerShares(*prev, model), ledgerShares(latest, model)) {
			fmt.Fprintln(os.Stderr, line)
		}
	}
}

// runHistory implements -history: compare the newest ledger record
// against the rolling baseline of earlier comparable records. Exits via
// return code: 0 clean, 1 regression or unusable ledger.
func runHistory(dir string, window int, tol float64) int {
	l, err := metrics.OpenLedger(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	recs, skipped, err := l.Read()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "simbench: skipped %d corrupted ledger line(s) in %s\n", skipped, l.Path())
	}
	if len(recs) == 0 {
		fmt.Fprintf(os.Stderr, "simbench: %s is empty — run simbench first to record history\n", l.Path())
		return 1
	}
	latest := recs[len(recs)-1]
	fmt.Fprintf(os.Stderr, "ledger %s: %d record(s); latest key %s (%s, %s)\n",
		l.Path(), len(recs), latest.Key, latest.GoVersion, latest.EngineVersion)
	if regressed := printTrends(metrics.Trends(recs, window, tol)); len(regressed) > 0 {
		printHistoryAttribution(recs, regressed)
		fmt.Fprintln(os.Stderr, "simbench: performance regressed vs rolling baseline")
		return 1
	}
	return 0
}

func main() { os.Exit(run()) }

func run() int {
	out := flag.String("o", "BENCH_PR8.json", "output file (\"-\" for stdout)")
	skipSweep := flag.Bool("nosweep", false, "skip the full-suite sweep timing (much faster)")
	sample := flag.Int("sample", 4, "interval count for the sampling benchmark (0 disables)")
	storeDir := flag.String("store-dir", "", "install a persistent store for the whole run (\"\" = none; the store micro-benchmark uses its own temp stores either way)")
	storeBudget := flag.Int64("store-budget", 2<<30, "persistent store byte budget (LRU-evicted)")
	noStore := flag.Bool("no-store", false, "skip the store cold/warm micro-benchmark and ignore -store-dir")
	check := flag.String("check", "", "baseline JSON to compare against; exit non-zero if finite-model sim-MIPS drops below 50%")
	ledgerDir := flag.String("ledger", ".simledger", "run-ledger directory (\"\" disables the ledger)")
	history := flag.Bool("history", false, "don't benchmark; compare the newest ledger record against its rolling baseline and exit non-zero on regression")
	window := flag.Int("window", 5, "rolling-baseline window for -history (earlier comparable runs averaged)")
	tol := flag.Float64("tol", 0.30, "relative tolerance for -history (0.30 = flag a >30% move in the bad direction)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of this run to this file (read it with go tool pprof); an interrupted run still writes it")
	flag.Parse()

	stopProfile, err := harness.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return harness.ExitError
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
		}
	}()

	if *history {
		return runHistory(*ledgerDir, *window, *tol)
	}

	// First SIGINT/SIGTERM cancels the run: the current phase stops at its
	// next boundary (the sweep at a cell boundary) and the process exits
	// 130 through the normal defers. A second signal force-exits 131. No
	// partial benchmark record is ever appended to the ledger: an
	// interrupted measurement would poison the trend baselines.
	ctx, stopSignals := harness.NotifyInterrupt(context.Background(), func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "simbench: %v again — forced exit, skipping cleanup\n", sig)
		os.Exit(harness.ExitForced)
	})
	defer stopSignals()

	if *storeDir != "" && !*noStore {
		s, err := store.Open(*storeDir, *storeBudget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return harness.ExitError
		}
		harness.SetStore(s)
	}

	// interrupted reports (once per phase boundary) whether the run context
	// was cancelled; phases after a cancellation never start.
	interrupted := func() bool { return ctx.Err() != nil }

	res := result{
		SchemaVersion: resultSchemaVersion,
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Workload:      "blowfish/rot/4096B CBC session, seed 12345",
		EngineVersion: ooo.EngineVersion,
	}
	rec, err := benchRecord()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return harness.ExitError
	}
	res.TraceRecordSeconds = rec
	fmt.Fprintf(os.Stderr, "trace record %8.1f ms (one-time per cell)\n", 1e3*rec)
	for _, cfg := range []ooo.Config{ooo.FourWide, ooo.FourWidePlus, ooo.EightWidePlus, ooo.Dataflow} {
		if interrupted() {
			break
		}
		mb, err := benchModel(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return harness.ExitError
		}
		fmt.Fprintf(os.Stderr, "%-4s %8.1f ms/run (replay)  %6.2f sim-MIPS  %5d allocs/run\n",
			mb.Model, 1e3*mb.SecPerRun, mb.SimMIPS, mb.AllocsPerRun)
		res.Models = append(res.Models, mb)
	}
	for _, cfg := range []ooo.Config{ooo.FourWide, ooo.EightWidePlus} {
		if interrupted() {
			break
		}
		var serial modelBench
		for _, m := range res.Models {
			if m.Model == cfg.Name {
				serial = m
			}
		}
		if *sample > 1 {
			sb, err := benchSampled(cfg, serial, *sample)
			if err != nil {
				fmt.Fprintln(os.Stderr, "simbench:", err)
				return harness.ExitError
			}
			fmt.Fprintf(os.Stderr, "%-4s %8.1f ms/run (sampled K=%d)  %6.2f eff-MIPS  %.2fx vs serial  cycle err %.4f (bound %.4f)\n",
				sb.Model, 1e3*sb.SecPerRun, sb.Intervals, sb.EffectiveSimMIPS, sb.SpeedupVsSerial, sb.CycleRelErr, sb.ReportedErrBound)
			res.SampledBench = append(res.SampledBench, sb)
		}
	}
	res.TraceCache = harness.ReadTraceCacheStats()
	fmt.Fprintf(os.Stderr, "trace cache: %d hits, %d misses (%d records, %d replays, %d live)\n",
		res.TraceCache.Hits, res.TraceCache.Misses, res.TraceCache.Records,
		res.TraceCache.Replays, res.TraceCache.LiveFallbacks)
	if !*noStore && !interrupted() {
		sb, err := benchStore()
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return harness.ExitError
		}
		fmt.Fprintf(os.Stderr, "store: cold %8.1f ms (record+persist), warm %8.1f ms (fault-in)  %.1fx\n",
			1e3*sb.ColdSeconds, 1e3*sb.WarmSeconds, sb.Speedup)
		res.StoreBench = sb
	}
	if !*skipSweep && !interrupted() {
		res.SweepCells = len(experiments.AllCells())
		res.SweepWorkers = runtime.GOMAXPROCS(0)
		res.SweepSerialSeconds = timedSweep(ctx, 1)
		if !interrupted() {
			res.SweepParallelSeconds = timedSweep(ctx, res.SweepWorkers)
		}
		experiments.ResetCache()
		if !interrupted() {
			fmt.Fprintf(os.Stderr, "sweep %d cells: serial %.1fs, %d workers %.1fs\n",
				res.SweepCells, res.SweepSerialSeconds, res.SweepWorkers, res.SweepParallelSeconds)
		}
	}
	// An interrupted run appends nothing and writes nothing: partial
	// measurements must not join the ledger's trend baselines or overwrite
	// a complete result file.
	if interrupted() {
		fmt.Fprintf(os.Stderr, "simbench: interrupted (%v); no result written, no ledger record appended\n", ctx.Err())
		return harness.ExitInterrupt
	}
	if *ledgerDir != "" {
		l, err := metrics.OpenLedger(*ledgerDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return harness.ExitError
		}
		rec := metrics.LedgerRecord{
			TimeUnix:      time.Now().Unix(),
			GoVersion:     res.GoVersion,
			GOMAXPROCS:    res.GOMAXPROCS,
			Workload:      res.Workload,
			Config:        benchConfigID,
			EngineVersion: res.EngineVersion,
		}
		for _, m := range res.Models {
			rec.Models = append(rec.Models, metrics.LedgerModel{
				Model: m.Model, SimMIPS: m.SimMIPS,
				AllocsPerRun: m.AllocsPerRun, BytesPerRun: m.BytesPerRun,
				Cycles: m.Cycles, Instructions: m.Instructions,
				IPC: m.IPC, StallShares: m.StallShares,
			})
		}
		// Sampling rides the same ledger under a derived model name, so
		// -history tracks its effective (represented) throughput too.
		for _, s := range res.SampledBench {
			rec.Models = append(rec.Models, metrics.LedgerModel{
				Model: s.Model + "/s" + fmt.Sprint(s.Intervals), SimMIPS: s.EffectiveSimMIPS,
			})
		}
		if err := l.Append(&rec); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return harness.ExitError
		}
		res.LedgerKey = rec.Key
		fmt.Fprintf(os.Stderr, "ledger: appended key %s to %s\n", rec.Key, l.Path())
	}
	reg := harness.Metrics()
	metrics.SampleRuntime(reg)
	res.Metrics = reg.Snapshot()
	if *check != "" {
		if err := checkBaseline(res.Models, *check); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return harness.ExitError
		}
		if err := checkAccuracy(res.SampledBench); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return harness.ExitError
		}
		fmt.Fprintln(os.Stderr, "baseline check passed:", *check)
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return harness.ExitError
	}
	b = append(b, '\n')
	if *out == "-" {
		os.Stdout.Write(b)
		return harness.ExitOK
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return harness.ExitError
	}
	fmt.Fprintln(os.Stderr, "wrote", *out)
	return harness.ExitOK
}
