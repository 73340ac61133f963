// Command asplos2000 runs the complete reproduction: every table and
// figure of "Architectural Support for Fast Symmetric-Key Cryptography"
// (ASPLOS 2000), printing each report and optionally rewriting
// EXPERIMENTS.md (-write).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cryptoarch/internal/experiments"
	"cryptoarch/internal/harness"
	"cryptoarch/internal/metrics"
	"cryptoarch/internal/store"
)

const header = `# EXPERIMENTS — paper vs. measured

Regenerated by ` + "`go run ./cmd/asplos2000 -write`" + `. Each section maps a
table or figure of Burke/McDonald/Austin, *Architectural Support for Fast
Symmetric-Key Cryptography* (ASPLOS 2000), to this repository's measured
reproduction. Absolute numbers differ from the paper (our kernels are
hand-written for a synthetic Alpha-like ISA rather than compiled CryptSoft
C, and our timing model is trace-driven); the comparisons called out under
each section are the paper's qualitative claims, which are the
reproduction targets.

`

// expectations records, per experiment, what the paper claims and what to
// check in our measured output.
var expectations = map[string]string{
	"table-1": "Paper: eight strong ciphers, >=128-bit keys (3DES: 168), " +
		"blocks of 64/128 bits, RC4 as the lone stream cipher. Measured " +
		"table must match the configuration used throughout.",
	"figure-2": "Paper: public-key work dominates very short sessions; by " +
		"~32KB sessions the private-key cipher share approaches half of " +
		"server time (48%). Check: the public-key column falls " +
		"monotonically with session length and crosses below the " +
		"private-key column in the few-KB range for 3DES.",
	"figure-4": "Paper: 3DES slowest (7.32 B/kcyc on 4W; a 1 GHz CPU " +
		"cannot saturate a T3 line with margin), RC4 fastest (88.16), " +
		"Rijndael the fastest block cipher (48.51); RC4 and Rijndael have " +
		"large dataflow headroom, the others run within ~10-30% of " +
		"dataflow. Check the same ordering and headroom pattern.",
	"figure-5": "Paper: branch prediction and memory are non-bottlenecks; " +
		"issue width and functional-unit supply bind for all ciphers; " +
		"store-address aliasing binds only RC4; window size binds only " +
		"RC4. Check: Branch/Mem columns ~1.00 everywhere, Alias and " +
		"Window clearly below 1.00 only for rc4.",
	"figure-6": "Paper: setup cost is amortized below 10% by ~4KB sessions " +
		"for most ciphers; Blowfish is the outlier, needing >64KB (its " +
		"setup runs the cipher 521 times); 3DES and IDEA have tiny setup " +
		"relative to their kernels. Check the same ranking.",
	"figure-7": "Paper: IDEA and RC6 are computational (multiplies), " +
		"Blowfish/3DES/Rijndael/Twofish are substitution-dominated; " +
		"rotates appear in nearly all kernels; only 3DES has permutation " +
		"work. Check the same class structure.",
	"sec-4.3-valuepred": "Paper: the most predictable dependence edge hits " +
		"only 6.3% with an infinite last-value predictor. Check: best " +
		"edge accuracy stays in single digits for every cipher.",
	"table-2": "Machine models as configured in this reproduction " +
		"(paper Table 2 parameters).",
	"footnote-1-decrypt": "Paper footnote 1: encryption and decryption " +
		"perform comparably. Check: ratios near 1.0. Ratios below 1.0 are " +
		"a real microarchitectural effect this model exposes: CBC " +
		"decryption has no inter-block recurrence, so the out-of-order " +
		"window overlaps adjacent blocks.",
	"figure-10": "Paper: average 59% speedup (Opt/4W vs rotate baseline) " +
		"and 74% vs a no-rotate baseline; IDEA gains most (159%) from " +
		"MULMOD; Rijndael nearly doubles from SBOX; RC6 gains least " +
		"(mostly rotates, already in the baseline); Mars/RC6 lose 40%/24% " +
		"without rotates; 4W+ adds little for Rijndael/Twofish (issue-" +
		"saturated at 4-wide); 8W+ reaches dataflow for all but RC4. " +
		"Check each of these shapes.",
}

func main() { os.Exit(run()) }

func run() int {
	write := flag.Bool("write", false, "rewrite EXPERIMENTS.md")
	asJSON := flag.Bool("json", false, "emit all reports as one JSON array instead of text")
	progress := flag.Bool("progress", false, "print per-cell sweep progress to stderr (cell, wall time, trace-cache hits/misses, ETA)")
	profile := flag.Bool("profile", false, "append the per-PC hot-spot report (top PCs per cipher/variant/model)")
	profileTop := flag.Int("profile-top", 5, "hot PCs per cell in the -profile report")
	diffSpec := flag.String("diff", "", "append a bottleneck-shift report diffing two ISA variants, e.g. rot:opt or rot/4W:opt/4W+ (differential cycle accounting per cipher×model)")
	timeline := flag.String("timeline", "", "write a span timeline of this invocation as Chrome trace-event JSON (load in Perfetto or chrome://tracing)")
	sample := flag.Int("sample", 0, "run kernel-timing cells by sampling this many intervals per session (0 = exact serial; cycles are extrapolated estimates)")
	storeDir := flag.String("store-dir", ".simstore", "persistent content-addressed store directory (traces + cell results across invocations)")
	storeBudget := flag.Int64("store-budget", 2<<30, "persistent store byte budget (LRU-evicted)")
	noStore := flag.Bool("no-store", false, "disable the persistent store for this invocation")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of this invocation to this file (read it with go tool pprof); an interrupted run still writes it")
	flag.Parse()

	stopProfile, err := harness.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asplos2000:", err)
		return harness.ExitError
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "asplos2000:", err)
		}
	}()

	// First SIGINT/SIGTERM cancels the run context: the sweep dispatches no
	// further cell, the running ones finish and land in the store, and the
	// run exits 130 through the normal defers. A second signal force-exits
	// 131 on the spot — the user is done waiting, and cleanup is forfeit.
	ctx, stopSignals := harness.NotifyInterrupt(context.Background(), func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "asplos2000: %v again — forced exit, skipping cleanup\n", sig)
		os.Exit(harness.ExitForced)
	})
	defer stopSignals()

	// Validate the -diff spec before any simulation happens, and collect
	// the extra cells its report will consume so the sweep prefetches them.
	var diffCells []experiments.Cell
	if *diffSpec != "" {
		var err error
		diffCells, err = experiments.BottleneckShiftCells(*diffSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "asplos2000:", err)
			return harness.ExitUsage
		}
	}

	// Interval sampling trades exactness for throughput, so it may never
	// produce the repo's golden outputs: -write is refused under -sample.
	if *sample > 1 {
		if *write {
			fmt.Fprintln(os.Stderr, "asplos2000: refusing -write under -sample: EXPERIMENTS.md must come from exact serial runs")
			return harness.ExitUsage
		}
		experiments.SetCellBudget(&experiments.CellBudget{Mode: experiments.BudgetSampled, SampleIntervals: *sample})
		defer func() {
			if n := experiments.ApproxCellCount(); n > 0 {
				fmt.Fprintf(os.Stderr, "approximate mode: %d cell(s) ran sampled — cycle counts are estimates with the documented error bounds\n", n)
			}
		}()
	}

	// Persistent store: on by default, so repeated invocations re-simulate
	// only what the current tree invalidated. A stale store (older schema,
	// manifest missing) is refused for -write — the golden output must not
	// depend on a directory this binary can't vouch for — and otherwise
	// warned about and skipped; any other open failure just runs storeless.
	if !*noStore {
		s, err := store.Open(*storeDir, *storeBudget)
		switch {
		case err == nil:
			harness.SetStore(s)
		case errors.Is(err, store.ErrStale):
			if *write {
				fmt.Fprintf(os.Stderr, "asplos2000: refusing -write against a stale store: %v\n  (delete %s, or rerun with -no-store)\n", err, *storeDir)
				return harness.ExitUsage
			}
			fmt.Fprintf(os.Stderr, "asplos2000: %v; continuing without the store\n", err)
		default:
			fmt.Fprintf(os.Stderr, "asplos2000: store: %v; continuing without the store\n", err)
		}
	}

	// With -timeline, every phase of the invocation — the sweep, each
	// worker's cells with their record/replay sub-phases, and report
	// assembly — records spans; they are written out at exit.
	var tl *metrics.Timeline
	if *timeline != "" {
		tl = metrics.NewTimeline()
		harness.SetTimeline(tl)
		root := tl.Begin("cmd", "asplos2000")
		defer func() {
			tl.End(root)
			f, err := os.Create(*timeline)
			if err != nil {
				fmt.Fprintln(os.Stderr, "timeline:", err)
				return
			}
			werr := tl.WriteChromeTrace(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintln(os.Stderr, "timeline:", werr)
				return
			}
			fmt.Fprintln(os.Stderr, "wrote timeline", *timeline)
		}()
	}

	cells := append(experiments.AllCells(), diffCells...)

	// Execute every experiment's declared grid across GOMAXPROCS workers
	// (GOMAXPROCS=1 sweeps serially); assembly below then reads cache
	// hits. Report bytes are identical at any worker count — only the
	// wall clock changes.
	start := time.Now()
	var obs experiments.SweepProgress
	if *progress {
		obs = func(done, total int, c experiments.Cell, d time.Duration) {
			tc := harness.ReadTraceCacheStats()
			eta := time.Duration(0)
			if done > 0 {
				eta = time.Since(start) / time.Duration(done) * time.Duration(total-done)
			}
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %-40s %7.1fms  tc %d hit/%d miss  eta %s\n",
				done, total, c, 1e3*d.Seconds(), tc.Hits, tc.Misses, eta.Round(time.Second))
		}
	}
	outcome := experiments.SweepObservedCtx(ctx, cells, obs)
	tc := harness.ReadTraceCacheStats()
	// The grid repeats cells across experiments; the sweep runs each
	// unique cell once, and an interrupted one only some of them.
	swept := fmt.Sprintf("%d cells", len(outcome.Cells))
	if outcome.Cancelled != nil {
		swept += fmt.Sprintf(" (%d done)", outcome.Count(experiments.CellDone))
	}
	fmt.Fprintf(os.Stderr, "sweep: %s, %d workers  (%.1fs; trace cache %d hits, %d misses, %d evictions)\n",
		swept, experiments.Parallelism(), time.Since(start).Seconds(),
		tc.Hits, tc.Misses, tc.Evictions)
	if harness.CurrentStore() != nil {
		ss := store.ReadStats()
		fmt.Fprintf(os.Stderr, "store: result hits=%d misses=%d writes=%d evictions=%d corrupt=%d\n",
			ss.ResultHits, ss.ResultMisses, ss.Writes, ss.Evictions, ss.Corrupt)
	}
	if s := harness.CurrentStore(); s != nil {
		if deg, derr := s.Degraded(); deg {
			fmt.Fprintf(os.Stderr, "store: DEGRADED (%v) — results recomputed without persistence this run\n", derr)
		}
	}
	poisoned := outcome.Poisoned()
	for _, co := range poisoned {
		fmt.Fprintf(os.Stderr, "sweep: cell %s %s: %v\n", co.Cell, co.State, co.Err)
		var pe *experiments.CellPanicError
		if errors.As(co.Err, &pe) {
			fmt.Fprintf(os.Stderr, "%s\n", pe.Stack)
		}
	}
	if outcome.Cancelled != nil {
		// Interrupted: every cell that finished is already durable in
		// the store under a key naming this tree and cell, so the same
		// command run again simulates only what is left.
		fmt.Fprintf(os.Stderr, "asplos2000: interrupted (%v): %d of %d cells done; run the same command again to resume\n",
			outcome.Cancelled, outcome.Count(experiments.CellDone), len(outcome.Cells))
		return harness.ExitInterrupt
	}

	var reports []*experiments.Report
	var md strings.Builder
	md.WriteString(header)
	genFailed := 0
	for _, g := range experiments.All() {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "asplos2000: interrupted during report assembly (%v)\n", ctx.Err())
			return harness.ExitInterrupt
		}
		start := time.Now()
		sp := metrics.NoSpan
		if tl != nil {
			sp = tl.Begin("experiment", g.Name)
		}
		r, err := g.Run()
		tl.End(sp)
		if err != nil {
			// A poisoned cell fails only the experiments that consume it:
			// report the failure, keep generating everything else, and let
			// the exit status carry the damage.
			fmt.Fprintf(os.Stderr, "%s: %v\n", g.Name, err)
			genFailed++
			continue
		}
		if *asJSON {
			reports = append(reports, r)
			fmt.Fprintf(os.Stderr, "%s  (%.1fs)\n", g.Name, time.Since(start).Seconds())
		} else {
			fmt.Printf("%s  (%.1fs)\n\n", r.Text(), time.Since(start).Seconds())
		}
		md.WriteString(r.Markdown())
		if exp := expectations[g.Name]; exp != "" {
			md.WriteString("\n> " + exp + "\n")
		}
		md.WriteString("\n")
	}
	// The profiler and trace-cache reports are views of this invocation,
	// not paper experiments: they join the printed/JSON output but never
	// EXPERIMENTS.md, so -write output is byte-identical with or without
	// them.
	if *profile {
		start := time.Now()
		r, err := experiments.HotSpots(*profileTop)
		if err != nil {
			fmt.Fprintf(os.Stderr, "profile-hotspots: %v\n", err)
			genFailed++
		} else if *asJSON {
			reports = append(reports, r)
			fmt.Fprintf(os.Stderr, "%s  (%.1fs)\n", r.ID, time.Since(start).Seconds())
		} else {
			fmt.Printf("%s  (%.1fs)\n\n", r.Text(), time.Since(start).Seconds())
		}
	}
	if *diffSpec != "" {
		start := time.Now()
		r, err := experiments.BottleneckShift(*diffSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "diff: %v\n", err)
			genFailed++
		} else if *asJSON {
			reports = append(reports, r)
			fmt.Fprintf(os.Stderr, "%s  (%.1fs)\n", r.ID, time.Since(start).Seconds())
		} else {
			fmt.Printf("%s  (%.1fs)\n\n", r.Text(), time.Since(start).Seconds())
		}
	}
	if *asJSON {
		reports = append(reports, experiments.TraceCacheReport(), experiments.StoreReport(), experiments.MetricsReport())
		b, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			return harness.ExitError
		}
		fmt.Println(string(b))
	}
	if len(poisoned) > 0 || genFailed > 0 {
		if *write {
			fmt.Fprintf(os.Stderr, "asplos2000: refusing -write: %d poisoned cell(s), %d failed report(s) — EXPERIMENTS.md must come from a clean run\n", len(poisoned), genFailed)
		} else {
			fmt.Fprintf(os.Stderr, "asplos2000: completed with damage: %d poisoned cell(s), %d failed report(s)\n", len(poisoned), genFailed)
		}
		return harness.ExitPoisoned
	}
	if *write {
		if err := os.WriteFile("EXPERIMENTS.md", []byte(md.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "write:", err)
			return harness.ExitError
		}
		fmt.Println("wrote EXPERIMENTS.md")
	}
	return harness.ExitOK
}
