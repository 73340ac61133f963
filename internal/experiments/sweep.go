package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/metrics"
	"cryptoarch/internal/ooo"
)

// DefaultSeed is the workload seed used by every published experiment.
// It is part of each cell's cache key, so measurements at different seeds
// never collide.
const DefaultSeed = 12345

// CellKind identifies what a sweep cell measures.
type CellKind uint8

const (
	// CellKernel times an encryption session (harness.TimeKernel).
	CellKernel CellKind = iota
	// CellSetup times the key-setup program (harness.TimeSetup).
	CellSetup
	// CellDecrypt times a decryption session (harness.TimeDecrypt).
	CellDecrypt
	// CellCount counts committed instructions (harness.CountKernel).
	CellCount
	// CellMix measures the dynamic instruction-class mix (Figure 7).
	CellMix
	// CellValuePred measures last-value predictability (Section 4.3).
	CellValuePred
	// CellHandshake times the RSA handshake operation (Figure 2).
	CellHandshake
)

// Cell is one point of an experiment grid: a single simulation or
// emulation run, identified by everything that determines its result.
// Experiments declare the cells they will consume; the scheduler dedups
// and executes them, and the generators then assemble rows from the cache
// in paper order.
type Cell struct {
	Kind    CellKind
	Cipher  string
	Feat    isa.Feature
	Cfg     ooo.Config
	Session int
	Seed    int64
}

func (c Cell) key() string {
	return fmt.Sprintf("%d|%s|%s|%s|%d|%d", c.Kind, c.Cipher, c.Feat, c.Cfg.Name, c.Session, c.Seed)
}

// label is the span name of a cell: kind, cipher/feature and — when the
// cell runs a timing model — the machine configuration.
func (c Cell) label() string {
	if c.Cfg.Name != "" {
		return fmt.Sprintf("%s %s/%s %s", c.Kind, c.Cipher, c.Feat, c.Cfg.Name)
	}
	return fmt.Sprintf("%s %s/%s", c.Kind, c.Cipher, c.Feat)
}

// cellResult is a singleflight slot: the first goroutine to need the cell
// executes it inside once; everyone else blocks on once and reads the
// same immutable result. Which field is populated depends on Kind.
type cellResult struct {
	once  sync.Once
	stats *ooo.Stats // kernel, setup, decrypt
	n     uint64     // count, handshake
	mix   opMix      // mix
	vp    vpRow      // valuepred
	err   error

	// live marks a kernel cell whose session no other cell of its sweep
	// streams: it runs on a live machine instead of recording a trace
	// that nothing would replay. Set by the first request, inside once.
	live bool
}

func (r *cellResult) exec(c Cell) {
	switch c.Kind {
	case CellKernel:
		r.stats, r.err = timeKernelCell(c, r.live)
	case CellSetup:
		r.stats, r.err = harness.TimeSetup(c.Cipher, c.Feat, c.Cfg, c.Seed)
	case CellDecrypt:
		r.stats, r.err = harness.TimeDecrypt(c.Cipher, c.Feat, c.Cfg, c.Session, c.Seed)
	case CellCount:
		r.n, r.err = harness.CountKernel(c.Cipher, c.Feat, c.Session, c.Seed)
	case CellMix:
		r.mix, r.err = measureOpMix(c.Cipher, c.Feat, c.Session, c.Seed)
	case CellValuePred:
		r.vp, r.err = measureValuePred(c.Cipher, c.Feat, c.Session, c.Seed)
	case CellHandshake:
		r.n, r.err = measureHandshake()
	default:
		r.err = fmt.Errorf("experiments: unknown cell kind %d", c.Kind)
	}
}

var (
	runMu    sync.Mutex
	runCache = map[string]*cellResult{}
	workers  = runtime.GOMAXPROCS(0)

	// lastSweepWorkers records the worker count of the most recent sweep,
	// so tests can assert which execution path it took.
	lastSweepWorkers int
)

// getCell returns the completed result for c, executing it if this is the
// first request. Concurrent requests for the same key share one execution.
// With a persistent store installed, the singleflight body consults the
// store before executing and write-through persists what it executed, so
// a warm process re-simulates only cells the store missed.
// live is the sweep's single-use decision for a kernel cell (see
// cellResult.live); it takes effect only if this request executes c.
func getCell(c Cell, live bool) *cellResult {
	k := c.key()
	runMu.Lock()
	r := runCache[k]
	if r == nil {
		r = &cellResult{}
		runCache[k] = r
	}
	runMu.Unlock()
	r.once.Do(func() {
		if loadCellFromStore(c, r) {
			return
		}
		r.live = live
		r.execRecovered(c)
		saveCellToStore(c, r)
	})
	return r
}

// SetParallelism fixes the sweep worker count (minimum 1) and returns the
// previous value. The default is GOMAXPROCS.
func SetParallelism(n int) int {
	runMu.Lock()
	defer runMu.Unlock()
	prev := workers
	if n < 1 {
		n = 1
	}
	workers = n
	return prev
}

// Parallelism returns the current sweep worker count.
func Parallelism() int {
	runMu.Lock()
	defer runMu.Unlock()
	return workers
}

// ResetCache drops every memoized cell result and the harness trace
// cache beneath it, and (via ResetTraceCache) zeroes both the trace-cache
// and persistent-store counters, so equivalence loops that regenerate the
// suite per worker count start every pass from identical counter state.
// The persistent store's on-disk entries survive: a reset forgets memory,
// not disk.
func ResetCache() {
	runMu.Lock()
	runCache = map[string]*cellResult{}
	runMu.Unlock()
	harness.ResetTraceCache()
}

// effectiveWorkers is the worker count a sweep of nCells unique cells
// actually uses: the configured parallelism, clamped to the cell count
// and to a minimum of one.
func effectiveWorkers(nCells int) int {
	n := Parallelism()
	if n > nCells {
		n = nCells
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SweepProgress observes sweep execution: done of total unique cells
// finished, the cell that just completed, and its wall time (for a cell
// that waited on a concurrent duplicate execution, the wait is included —
// it is that request's wall cost either way). Callbacks are serialized;
// implementations may print without locking.
type SweepProgress func(done, total int, c Cell, d time.Duration)

// sweepTelemetry bundles the metric handles one sweep updates. Built from
// a nil registry every handle is nil and every update a no-op, so the
// scheduler is instrumented unconditionally.
type sweepTelemetry struct {
	sweeps  *metrics.Counter   // sweeps executed
	cells   *metrics.Counter   // unique cells dispatched
	workers *metrics.Gauge     // effective worker count of the last sweep
	cellNS  *metrics.Histogram // per-cell wall time
	queueNS *metrics.Histogram // time a cell waited for a free worker
}

func newSweepTelemetry(r *metrics.Registry) sweepTelemetry {
	return sweepTelemetry{
		sweeps:  r.Counter("sweep.sweeps"),
		cells:   r.Counter("sweep.cells"),
		workers: r.Gauge("sweep.workers"),
		cellNS:  r.Histogram("sweep.cell_ns"),
		queueNS: r.Histogram("sweep.queue_wait_ns"),
	}
}

// queuedCell stamps a cell with its index in the unique grid and its
// enqueue time, so the receiving worker can record the outcome slot and
// observe how long the cell sat waiting for a free worker.
type queuedCell struct {
	idx int
	c   Cell
	at  time.Time
}

// SweepObservedCtx executes a grid of cells across the configured worker
// count. Duplicate cells are executed once; cells already cached cost
// nothing. A cell's error is cached with its slot and resurfaces,
// deterministically, when a generator assembles the row that consumes it
// — so report output is identical whether or not a sweep ran first, and
// regardless of worker count. progress, when non-nil, is called once per
// finished unique cell; it only observes, so cell results and report
// bytes are identical with or without it.
//
// Cancelling ctx stops the sweep at the cell boundary — no new cell is
// dispatched — while cells already running finish and land normally, so
// every completed cell is exact and storable. The returned outcome
// reports every unique cell's fate: done, failed, panicked, or never
// started. Running the same grid again resumes an interrupted sweep:
// finished cells hit the cache or the persistent store, and only the
// skipped ones execute.
func SweepObservedCtx(ctx context.Context, cells []Cell, progress SweepProgress) *SweepOutcome {
	if ctx == nil {
		ctx = context.Background()
	}
	seen := make(map[string]bool, len(cells))
	uniq := cells[:0:0]
	for _, c := range cells {
		if k := c.key(); !seen[k] {
			seen[k] = true
			uniq = append(uniq, c)
		}
	}
	live := singleUse(uniq)
	// One effective worker takes the serial path: no channel, no
	// goroutines, no scheduler handoffs — measurably cheaper on a
	// single-CPU host than a one-worker pool.
	n := effectiveWorkers(len(uniq))
	lastSweepWorkers = n

	// Telemetry: counters/histograms on the process registry, and — when a
	// timeline is installed — a sweep span that every cell span parents to,
	// regardless of which worker goroutine executes it.
	reg := harness.Metrics()
	tl := harness.CurrentTimeline()
	tele := newSweepTelemetry(reg)
	tele.sweeps.Inc()
	tele.cells.Add(int64(len(uniq)))
	tele.workers.Set(float64(n))
	sweepSpan := metrics.NoSpan
	if tl != nil {
		sweepSpan = tl.Begin("sweep", fmt.Sprintf("sweep %d cells / %d workers", len(uniq), n))
	}
	defer tl.End(sweepSpan)

	// done counts completed cells under progressMu, which also serializes
	// the callback so progress lines never interleave.
	var progressMu sync.Mutex
	done := 0
	finish := func(c Cell, d time.Duration) {
		if progress == nil {
			return
		}
		progressMu.Lock()
		done++
		progress(done, len(uniq), c, d)
		progressMu.Unlock()
	}

	// Every unique cell gets an outcome slot; cells the sweep never reaches
	// keep the zero-value state overwritten here to CellSkipped. Workers
	// write disjoint slots (by index), so no lock is needed.
	outcomes := make([]CellOutcome, len(uniq))
	for i := range outcomes {
		outcomes[i] = CellOutcome{Cell: uniq[i], State: CellSkipped}
	}
	runOne := func(idx int, c Cell) time.Duration {
		start := time.Now()
		sp := tl.BeginOn(sweepSpan, "cell", c.label())
		r := getCell(c, live[idx])
		tl.End(sp)
		d := time.Since(start)
		st, err := classifyCell(r)
		outcomes[idx] = CellOutcome{Cell: c, State: st, Err: err, Wall: d}
		tele.cellNS.Observe(d.Nanoseconds())
		finish(c, d)
		return d
	}
	wrapUp := func() *SweepOutcome {
		out := &SweepOutcome{Cells: outcomes, Cancelled: ctx.Err()}
		if out.Cancelled != nil {
			reg.Counter("sweep.cancelled").Inc()
		}
		return out
	}

	if n <= 1 {
		for i, c := range uniq {
			// Cell boundary: a cancelled sweep dispatches nothing further.
			if ctx.Err() != nil {
				break
			}
			runOne(i, c)
		}
		return wrapUp()
	}
	ch := make(chan queuedCell)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Hold a token from the process-wide worker budget for the
			// goroutine's lifetime, so the budget caps how many cells
			// simulate at once. Cells take no tokens of their own, so the
			// blocking acquire only ever waits on other sweep workers.
			harness.AcquireWorker()
			defer harness.ReleaseWorker()
			tl.BindTrack(w)
			defer tl.ReleaseTrack()
			busy := reg.Counter(fmt.Sprintf("sweep.worker.%02d.busy_ns", w))
			for q := range ch {
				tele.queueNS.Observe(time.Since(q.at).Nanoseconds())
				// Cell boundary: a cell still queued when the sweep is
				// cancelled stays skipped instead of starting.
				if ctx.Err() != nil {
					continue
				}
				busy.Add(runOne(q.idx, q.c).Nanoseconds())
			}
		}(i + 1)
	}
dispatch:
	for i, c := range uniq {
		select {
		case ch <- queuedCell{idx: i, c: c, at: time.Now()}:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(ch)
	wg.Wait()
	return wrapUp()
}

// sessionKey names the encryption stream a Kernel, Count or Mix cell
// consumes: the trace-cache key those cells share.
type sessionKey struct {
	cipher string
	feat   isa.Feature
	bytes  int
	seed   int64
}

// singleUse reports, for each unique cell, whether it is a kernel cell
// whose encryption session no other cell of the grid streams. The trace
// cache records a session so that its second and later streams replay it;
// a session streamed once gains nothing from the recording — its records
// are retained and evicted for no replay — so that cell runs on a live
// machine. Value-prediction, decrypt and setup cells always run live, so
// none of them count.
func singleUse(uniq []Cell) []bool {
	key := func(c Cell) sessionKey { return sessionKey{c.Cipher, c.Feat, c.Session, c.Seed} }
	streams := map[sessionKey]int{}
	for _, c := range uniq {
		switch c.Kind {
		case CellKernel, CellCount, CellMix:
			streams[key(c)]++
		}
	}
	live := make([]bool, len(uniq))
	for i, c := range uniq {
		live[i] = c.Kind == CellKernel && streams[key(c)] == 1
	}
	return live
}

// Cached accessors used by the report generators. Each resolves through
// the cell cache, so a prior sweep makes assembly a pure lookup.

// timed runs (or recalls) one kernel session measurement.
func timed(cipher string, feat isa.Feature, cfg ooo.Config, session int, seed int64) (*ooo.Stats, error) {
	r := getCell(Cell{Kind: CellKernel, Cipher: cipher, Feat: feat, Cfg: cfg, Session: session, Seed: seed}, false)
	return r.stats, r.err
}

// timedSetup runs (or recalls) one key-setup measurement.
func timedSetup(cipher string, feat isa.Feature, cfg ooo.Config, seed int64) (*ooo.Stats, error) {
	r := getCell(Cell{Kind: CellSetup, Cipher: cipher, Feat: feat, Cfg: cfg, Seed: seed}, false)
	return r.stats, r.err
}

// timedDecrypt runs (or recalls) one decryption session measurement.
func timedDecrypt(cipher string, feat isa.Feature, cfg ooo.Config, session int, seed int64) (*ooo.Stats, error) {
	r := getCell(Cell{Kind: CellDecrypt, Cipher: cipher, Feat: feat, Cfg: cfg, Session: session, Seed: seed}, false)
	return r.stats, r.err
}

// counted runs (or recalls) one committed-instruction count.
func counted(cipher string, feat isa.Feature, session int, seed int64) (uint64, error) {
	r := getCell(Cell{Kind: CellCount, Cipher: cipher, Feat: feat, Session: session, Seed: seed}, false)
	return r.n, r.err
}

// mixFor runs (or recalls) one instruction-class-mix measurement.
func mixFor(cipher string, feat isa.Feature, session int, seed int64) (opMix, error) {
	r := getCell(Cell{Kind: CellMix, Cipher: cipher, Feat: feat, Session: session, Seed: seed}, false)
	return r.mix, r.err
}

// valuePredFor runs (or recalls) one value-predictability measurement.
func valuePredFor(cipher string, feat isa.Feature, session int, seed int64) (vpRow, error) {
	r := getCell(Cell{Kind: CellValuePred, Cipher: cipher, Feat: feat, Session: session, Seed: seed}, false)
	return r.vp, r.err
}
