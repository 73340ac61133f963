// Command perfbench is the repository benchmark: it times the simulator's
// sweep path end to end on three workloads and, in a separate traced run,
// breaks the time down per layer. Run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (each one process, at most two sweep workers):
//
//   - paper-cold: the full paper grid (experiments.AllCells) re-keyed to
//     the seed, swept exactly against a fresh store, reports assembled,
//     then swept warm against the store the cold pass wrote.
//   - paper-sampled: the grid's 4 KB kernel-timing cells swept under
//     interval sampling (K=4) with traces faulted in from a store, then an
//     untimed sampled-vs-exact accuracy check.
//   - replay-models: one warm trace (blowfish/rot/4096 B) replayed
//     round-robin on 4W, 4W+, 8W+ and DF by a single goroutine.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones,
// with --trace 1 the per-layer ones. Per-layer numbers come only from the
// benchmark's own timing of exported calls, the span timeline installed
// with harness.SetTimeline, and the registry counters of harness.Metrics —
// the benchmark adds no instrumentation to the simulator.
//
// Exported API the benchmark depends on (keep these, or update the
// benchmark with them):
//
//	experiments: AllCells, All (Generator.Run), Report.Markdown, Cell
//	  (Kind, Cipher, Feat, Cfg, Session, Seed, String), CellKernel,
//	  CellSetup, CellDecrypt, CellCount, CellMix, CellValuePred,
//	  CellHandshake, CellDone, DefaultSeed, SessionBytes,
//	  SweepObservedCtx, SweepOutcome, ResetCache, SetParallelism,
//	  SetCellBudget, CellBudget, BudgetSampled
//	harness: CountKernel, StreamKernel, TimeKernel, TimeKernelSampled,
//	  SampleOptions, SampleReport, KernelDigest, SetStore, CurrentStore,
//	  SetMetrics, Metrics, SetTimeline, ReadTraceCacheStats,
//	  AcquireWorker, ReleaseWorker
//	store: Open, Store.Get, Store.BytesUsed, ReadStats, TierResult,
//	  ResultIdentity.Key, ProgramDigest
//	metrics: NewRegistry, Registry.Counter, Registry.Histogram,
//	  NewTimeline, Timeline.Spans, Span, SpanID
//	ooo: Config, Models, Stats, EngineVersion
//	emu: Version
//	kernels: Get, Kernel.ProgramFor
//	pubkey: BuildModExp
//	isa: Feature, FeatRot
//
//	Registry names read: sweep.queue_wait_ns, sweep.worker.NN.busy_ns,
//	sample.runs, sample.exact_fallbacks, sample.intervals, ooo.runs,
//	ooo.insts, ooo.cycles, ooo.run_ns; span categories sweep, cell and
//	replay (named "run <model> ...").
//
// The paper-cold output checks also read cell results back from the result
// tier, so they re-derive the result-tier key the way experiments keys a
// cell (store.ResultIdentity over engine/emulator version, cell kind name,
// cipher, feature, program digest, session, seed and %#v of the config).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cryptoarch/internal/experiments"
	"cryptoarch/internal/harness"
)

// metricDef names one reported metric. moves says which end-to-end metric
// on which workload a per-layer metric should move.
type metricDef struct {
	name, unit, moves string
}

// endToEnd is printed with --trace 0, on every workload, so each metric
// is defined on all three:
//
//   - setup_s: median time of the work before a timed pass (cache reset,
//     fresh store and program assembly; trace recording on paper-sampled;
//     recording plus one warm-up run per model on replay-models).
//   - sweep_s: mean time of an untraced pass — sweep start through report
//     assembly on paper-cold, the sampled sweep on paper-sampled, one
//     round of four replays on replay-models.
//   - sim_mips.<model>: simulated instructions of the model's cells per
//     host second of sweep over the untraced passes; on replay-models, per
//     host second of the model's replays. Sampled cells count the
//     instructions they cover.
//   - peak_rss_mb: median over passes of the peak resident set from a
//     pass's set-up through its end; on replay-models, from the last
//     set-up through the end of the run.
//
// Timings are means over every repetition of a run (see mean), scaled to
// the reference host speed (see hostref.go).
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"sweep_s", "s", ""},
	{"sim_mips.4w", "MIPS", ""},
	{"sim_mips.4wp", "MIPS", ""},
	{"sim_mips.8wp", "MIPS", ""},
	{"sim_mips.df", "MIPS", ""},
	{"peak_rss_mb", "MB", ""},
}

// perLayer is printed with --trace 1, on every workload; a layer that does
// no work on a workload reports 0.
var perLayer = []metricDef{
	{"experiments.cells", "count", "attempted/failed on all workloads"},
	{"experiments.cell_ms.p50", "ms", "sweep_s on paper-cold"},
	{"experiments.cell_ms.p90", "ms", "sweep_s on paper-cold"},
	{"experiments.cell_ms.samples", "count", "sample count of the cell_ms percentiles"},
	{"experiments.max_cell_s", "s", "sweep_s on paper-cold (lower limit at 2 workers)"},
	{"experiments.queue_wait_s", "s", "sweep_s on paper-cold and paper-sampled"},
	{"experiments.idle_share", "ratio", "sweep_s on paper-cold and paper-sampled"},
	{"experiments.cell_self_s", "s", "sweep_s on paper-cold"},
	{"experiments.unattributed_share", "ratio", "conservation residue of the per-layer split"},
	{"experiments.report_s", "s", "sweep_s on paper-cold (seed 12345 only)"},
	{"experiments.warm_sweep_s", "s", "warm pass of paper-cold"},
	{"experiments.warm_hit_ratio", "ratio", "experiments.warm_sweep_s on paper-cold"},
	{"harness.trace_records", "count", "sweep_s and peak_rss_mb on paper-cold"},
	{"harness.trace_hits", "count", "sweep_s and peak_rss_mb on paper-cold"},
	{"harness.trace_misses", "count", "sweep_s and peak_rss_mb on paper-cold"},
	{"harness.trace_evictions", "count", "sweep_s and peak_rss_mb on paper-cold"},
	{"harness.trace_resumes", "count", "sweep_s and peak_rss_mb on paper-cold"},
	{"harness.live_fallbacks", "count", "sweep_s and peak_rss_mb on paper-cold"},
	{"harness.record_s", "s", "sweep_s on paper-cold, setup_s on paper-sampled"},
	{"harness.stream_ms", "ms", "sim_mips.* on replay-models"},
	{"harness.sampled_cells", "count", "sweep_s on paper-sampled"},
	{"harness.exact_fallbacks", "count", "sweep_s on paper-sampled"},
	{"harness.sample_intervals", "count", "sweep_s on paper-sampled"},
	{"harness.sample_err_max", "ratio", "accuracy of paper-sampled"},
	{"harness.bound_miss_ratio", "ratio", "accuracy of paper-sampled"},
	{"emu.record_mips", "MIPS", "sweep_s on paper-cold, setup_s on paper-sampled"},
	{"ooo.runs", "count", "exact count: must not move in a speed-only change"},
	{"ooo.insts", "count", "exact count: must not move in a speed-only change"},
	{"ooo.cycles", "count", "exact count: must not move in a speed-only change"},
	{"ooo.run_s", "s", "sweep_s on paper-cold, sim_mips.* on replay-models"},
	{"ooo.engine_mips", "MIPS", "sweep_s on paper-cold, sim_mips.* on replay-models"},
	{"ooo.run_ms.4w", "ms", "sim_mips.4w on replay-models"},
	{"ooo.run_ms.4wp", "ms", "sim_mips.4wp on replay-models"},
	{"ooo.run_ms.8wp", "ms", "sim_mips.8wp on replay-models"},
	{"ooo.run_ms.df", "ms", "sim_mips.df on replay-models"},
	{"ooo.allocs_per_run.4w", "count", "sim_mips.4w on replay-models"},
	{"ooo.allocs_per_run.4wp", "count", "sim_mips.4wp on replay-models"},
	{"ooo.allocs_per_run.8wp", "count", "sim_mips.8wp on replay-models"},
	{"ooo.allocs_per_run.df", "count", "sim_mips.df on replay-models"},
	{"store.writes", "count", "sweep_s on paper-cold"},
	{"store.write_s", "s", "sweep_s on paper-cold"},
	{"store.disk_mb", "MB", "sweep_s on paper-cold"},
	{"store.trace_hits", "count", "sweep_s on paper-sampled"},
	{"store.load_s", "s", "sweep_s on paper-sampled"},
	{"store.result_hits", "count", "experiments.warm_sweep_s on paper-cold"},
	{"store.corrupt", "count", "failed on all workloads (must stay 0)"},
	{"store.retries", "count", "failed on all workloads (must stay 0)"},
	{"store.degraded", "count", "failed on all workloads (must stay 0)"},
	{"pubkey.handshake_s", "s", "sweep_s on paper-cold via experiments.max_cell_s"},
	{"metrics.trace_overhead_share", "ratio", "traced vs untraced sweep_s, same workload"},
	{"go.gc_cycles", "count", "peak_rss_mb and sweep_s"},
	{"go.gc_pause_s", "s", "peak_rss_mb and sweep_s"},
	{"go.heap_peak_mb", "MB", "peak_rss_mb and sweep_s"},
	{"host.ref_ms", "ms", "host speed: the end-to-end timings are scaled by 17 ms / host.ref_ms"},
}

// modelSlugs maps machine-model names to metric-name suffixes.
var modelSlugs = map[string]string{"4W": "4w", "4W+": "4wp", "8W+": "8wp", "DF": "df"}

// run is the state shared by one workload invocation.
type run struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	start    time.Time
	tmp      string // temp root, removed at exit
	workers  int
	attempts int
	failures int
}

// check counts one output check; a failing one is reported on stderr and
// counts toward failed.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempts++
	if !ok {
		r.failures++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// more reports whether another measured pass should start: while the
// run's time is not used up, and always until least passes are done.
func (r *run) more(done, least int) bool {
	return done < least || time.Since(r.start) < r.seconds
}

// outcome is what a workload hands back: end-to-end and per-layer values
// by metric name, with raw timings, and the host reference sampled over
// the run.
type outcome struct {
	e2e, layers map[string]float64
	ref         *hostRef
}

// normalize converts the end-to-end timings to seconds at the reference
// host speed (see hostref.go) and reports the raw reference time.
func (o *outcome) normalize() {
	f := o.ref.scale()
	fmt.Fprintf(os.Stderr, "perfbench: host reference %.3f ms over %d sorts; timings scaled by %.4f\n", o.ref.meanMS(), len(o.ref.ms), f)
	for k, v := range o.e2e {
		switch {
		case k == "setup_s" || k == "sweep_s":
			o.e2e[k] = v * f
		case strings.HasPrefix(k, "sim_mips."):
			o.e2e[k] = v / f
		}
	}
	o.layers["host.ref_ms"] = o.ref.meanMS()
}

var workloads = map[string]func(*run) (*outcome, error){
	"paper-cold":    paperCold,
	"paper-sampled": paperSampled,
	"replay-models": replayModels,
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	workload := flag.String("workload", "", "workload: paper-cold, paper-sampled or replay-models")
	seed := flag.Int64("seed", experiments.DefaultSeed, "workload seed (grid cells are re-keyed to it)")
	seconds := flag.Int("seconds", 30, "measure for this many seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics; 0 = end-to-end metrics")
	flag.Parse()
	fn := workloads[*workload]
	if fn == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {paper-cold|paper-sampled|replay-models} --seed N --seconds S --trace 0|1\n")
		return 2
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		start:   time.Now(),
		tmp:     tmp,
		workers: min(2, runtime.NumCPU()),
	}
	restore := installGlobals(r.workers)
	out, err := fn(r)
	restore()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	out.normalize()
	defs, vals := endToEnd, out.e2e
	if r.trace {
		defs, vals = perLayer, out.layers
	}
	return emit(r, defs, vals)
}

// installGlobals sets the process-wide knobs every workload starts from —
// an empty cell cache, no store, exact cells, no timeline, a fresh
// registry, r.workers sweep workers — and returns a function restoring
// what was there before.
func installGlobals(workers int) func() {
	experiments.ResetCache()
	prevStore := harness.SetStore(nil)
	prevBudget := experiments.SetCellBudget(nil)
	prevTL := harness.SetTimeline(nil)
	prevReg := harness.Metrics()
	prevPar := experiments.SetParallelism(workers)
	return func() {
		experiments.SetParallelism(prevPar)
		harness.SetMetrics(prevReg)
		harness.SetTimeline(prevTL)
		experiments.SetCellBudget(prevBudget)
		harness.SetStore(prevStore)
		experiments.ResetCache()
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints one human-readable line per metric, then the result JSON as
// the last line of standard output.
func emit(r *run, defs []metricDef, vals map[string]float64) int {
	res := resultOut{
		Correct:   r.failures == 0,
		Attempted: max(r.attempts, 1),
		Failed:    r.failures,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v := vals[d.name]
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		line := fmt.Sprintf("%-32s %14.6g %-6s", d.name, v, d.unit)
		if d.moves != "" {
			line += "  -> " + d.moves
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	if extra := unknownKeys(vals, defs); len(extra) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: internal: unreported metrics %v\n", extra)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// unknownKeys lists computed values that no definition names — a typo
// guard between the workloads and the metric tables.
func unknownKeys(vals map[string]float64, defs []metricDef) []string {
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	var out []string
	for k := range vals {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// cleanSlate starts a set-up from empty in-memory caches and a collected
// heap returned to the OS, and restarts the peak-RSS mark there, so every
// pass is measured from the same state.
func cleanSlate() {
	experiments.ResetCache()
	debug.FreeOSMemory()
	resetPeakRSS()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so the
// next peakRSSMB covers only what follows. Where the kernel refuses, the
// mark keeps covering the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the resident-set high-water mark in MB: VmHWM since the
// last resetPeakRSS, or the process peak from getrusage where
// /proc/self/status is unreadable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}
