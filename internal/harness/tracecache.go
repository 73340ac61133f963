package harness

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/metrics"
	"cryptoarch/internal/ooo"
	"cryptoarch/internal/store"
)

// This file implements record-once/replay-many: the dynamic instruction
// stream of a session is fully determined by (cipher, feat, sessionBytes,
// seed, mode), yet the sweep times it on up to five machine models. The
// cache records the functional emulation once into a packed emu.Trace and
// hands every subsequent run a ReplayStream, so a cell's models share one
// emulation. Entries never go stale — the key determines the trace bit for
// bit — so the only invalidation is capacity (LRU) and the explicit
// ResetTraceCache used by benchmarks.

// traceMode distinguishes the three program shapes a key can describe.
type traceMode uint8

const (
	modeEncrypt traceMode = iota
	modeDecrypt
	modeSetup // sessionBytes ignored (key setup only)
)

type traceKey struct {
	cipher  string
	feat    isa.Feature
	session int
	seed    int64
	mode    traceMode
}

// traceEntry is a singleflight slot: the first goroutine to arrive records
// under once; everyone else waits and replays. record sets tr, and the
// fields it publishes with it, under traces.mu: evictLocked reads every
// entry's tr under that lock, entries still recording included.
type traceEntry struct {
	once sync.Once

	tr      *emu.Trace // complete trace; nil if oversized or errored
	codeLen int        // static code length (for I-cache warming)
	err     error

	// Oversized traces (beyond maxTraceInsts) are not retained: the
	// recording run keeps its machine and hands out a one-shot
	// replay-prefix-then-go-live stream; later arrivals re-emulate live.
	resume ooo.Stream

	// fromStore marks an entry faulted in from the persistent store: the
	// recording goroutine paid a disk load, not a functional emulation, so
	// hit/miss classification counts it as a hit.
	fromStore bool

	lastUse uint64 // cache clock at last touch (LRU)
}

// maxTraceInsts caps the records retained per trace (16 B each: 48 MB).
// Fig6's 64 KB sessions reach ~15M instructions for 3DES; retaining
// those would blow the budget for traces that are replayed by at most
// one extra model anyway.
const maxTraceInsts = 3 << 20

// traceBudgetBytes bounds total retained trace memory across the cache.
// A variable so tests can shrink it to exercise eviction pressure.
var traceBudgetBytes = 192 << 20

// recBufs pools full-capacity record buffers. Recording appends up to
// maxTraceInsts records; growing a fresh slice there each time costs a
// doubling series of large copies (hundreds of MB of memmove across a
// sweep), so recordings borrow a pre-sized buffer and the retained trace
// keeps only an exact-size copy.
var recBufs = make(chan []emu.TraceRec, 4)

func getRecBuf() []emu.TraceRec {
	select {
	case b := <-recBufs:
		return b[:0]
	default:
		return make([]emu.TraceRec, 0, maxTraceInsts)
	}
}

func putRecBuf(b []emu.TraceRec) {
	if cap(b) < maxTraceInsts {
		return
	}
	select {
	case recBufs <- b:
	default:
	}
}

// releasingStream returns its borrowed record buffer to the pool once the
// stream is drained (the engine always runs streams to completion).
type releasingStream struct {
	s   ooo.Stream
	buf []emu.TraceRec
}

func (r *releasingStream) Program() *isa.Program { return r.s.Program() }

func (r *releasingStream) Next() ([]emu.TraceRec, bool) {
	recs, ok := r.s.Next()
	if !ok && r.buf != nil {
		putRecBuf(r.buf)
		r.buf = nil
	}
	return recs, ok
}

// Err passes a terminal machine fault of the wrapped stream through to the
// timing engine.
func (r *releasingStream) Err() error {
	if f, ok := r.s.(interface{ Err() error }); ok {
		return f.Err()
	}
	return nil
}

// TraceCacheStats counts cache traffic for benchmark and sweep-progress
// reporting. Hits/Misses classify every stream request: a hit is served
// entirely from previously recorded state; a miss pays functional
// emulation (it recorded the trace itself, or fell back to live
// execution). The remaining counters break the traffic down by mechanism.
//
// The counters live on the telemetry registry (tracecache.* names); this
// struct is the stable JSON view ReadTraceCacheStats assembles from them,
// so asplos2000 -json output keeps its field names. With the registry
// disabled (SetMetrics(nil)) the counts read zero.
type TraceCacheStats struct {
	Hits          int           `json:"hits"`           // requests served from a recorded trace
	Misses        int           `json:"misses"`         // requests that paid functional emulation
	Records       int           `json:"records"`        // full traces recorded
	Replays       int           `json:"replays"`        // runs served by a cached trace
	Resumes       int           `json:"resumes"`        // oversized records streamed out once
	LiveFallbacks int           `json:"live_fallbacks"` // runs that re-emulated live
	Evictions     int           `json:"evictions"`      // traces dropped by the LRU budget
	RecordTime    time.Duration `json:"record_time_ns"` // wall time spent in functional recording
}

type traceCache struct {
	mu      sync.Mutex
	entries map[traceKey]*traceEntry
	bytes   int // retained trace bytes
	clock   uint64
}

var traces = traceCache{entries: make(map[traceKey]*traceEntry)}

// tcCounters holds the registry handles of the trace-cache counters,
// rebound whenever SetMetrics swaps the registry. All fields are nil when
// telemetry is disabled; every update site then no-ops.
type tcCounters struct {
	hits, misses, records, replays, resumes *metrics.Counter
	liveFallbacks, evictions, recordNS      *metrics.Counter
}

var tcPtr atomic.Pointer[tcCounters]

func rebindTraceCounters(r *metrics.Registry) {
	tcPtr.Store(&tcCounters{
		hits:          r.Counter("tracecache.hits"),
		misses:        r.Counter("tracecache.misses"),
		records:       r.Counter("tracecache.records"),
		replays:       r.Counter("tracecache.replays"),
		resumes:       r.Counter("tracecache.resumes"),
		liveFallbacks: r.Counter("tracecache.live_fallbacks"),
		evictions:     r.Counter("tracecache.evictions"),
		recordNS:      r.Counter("tracecache.record_ns"),
	})
}

// tcCtr returns the current counter handles (never nil; the handles inside
// are nil when telemetry is off).
func tcCtr() *tcCounters { return tcPtr.Load() }

func (c *tcCounters) reset() {
	for _, ctr := range []*metrics.Counter{
		c.hits, c.misses, c.records, c.replays, c.resumes,
		c.liveFallbacks, c.evictions, c.recordNS,
	} {
		ctr.Reset()
	}
}

// ResetTraceCache drops all cached traces and zeroes the statistics —
// both the trace-cache counters and the persistent-store counters, so
// cold/warm benchmark passes and worker-count equivalence loops start from
// a clean count. The persistent store itself (if installed) keeps its
// entries: dropping the in-memory cache must not forget what is on disk.
func ResetTraceCache() {
	traces.mu.Lock()
	defer traces.mu.Unlock()
	traces.entries = make(map[traceKey]*traceEntry)
	traces.bytes = 0
	traces.clock = 0
	tcCtr().reset()
	store.ResetCounters()
}

// ReadTraceCacheStats returns a snapshot of the cache counters.
func ReadTraceCacheStats() TraceCacheStats {
	c := tcCtr()
	return TraceCacheStats{
		Hits:          int(c.hits.Value()),
		Misses:        int(c.misses.Value()),
		Records:       int(c.records.Value()),
		Replays:       int(c.replays.Value()),
		Resumes:       int(c.resumes.Value()),
		LiveFallbacks: int(c.liveFallbacks.Value()),
		Evictions:     int(c.evictions.Value()),
		RecordTime:    time.Duration(c.recordNS.Value()),
	}
}

// machineFor builds the functional machine a key describes.
func machineFor(k traceKey) (*emu.Machine, error) {
	kern, err := kernels.Get(k.cipher)
	if err != nil {
		return nil, err
	}
	if k.mode == modeSetup {
		key, iv := setupKeyIV(kern, k.seed)
		m, _, err := kernels.NewSetupRun(kern, k.feat, key, iv)
		return m, err
	}
	w, err := NewWorkload(k.cipher, k.session, k.seed)
	if err != nil {
		return nil, err
	}
	if k.mode == modeDecrypt {
		ct, err := kern.Encrypt(w.Key, w.IV, w.Plain)
		if err != nil {
			return nil, err
		}
		m, _, err := kernels.NewDecRun(kern, k.feat, w.Key, w.IV, ct)
		return m, err
	}
	m, _, err := kernels.NewRun(kern, k.feat, w.Key, w.IV, w.Plain)
	return m, err
}

// recordMaxInsts overrides the instruction budget of recording machines
// (0 = the emulator's default guard). Tests lower it to exercise the
// budget-fault path without minutes of emulation.
var recordMaxInsts uint64

// record fills e for the key (singleflight body): first by faulting a
// complete trace in from the persistent store, then — on a store miss —
// by running the functional emulation, write-through persisting the
// result.
func (e *traceEntry) record(k traceKey) {
	tl := CurrentTimeline()
	// The storeload span covers the lookup itself — read, sum check,
	// decode and Validate — so a store miss shows as a short span before
	// record.
	sp := metrics.NoSpan
	if tl != nil && CurrentStore() != nil {
		sp = tl.Begin("storeload", "store load "+k.cipher+"/"+k.feat.String())
	}
	if tr, codeLen, ok := loadTraceFromStore(k); ok {
		traces.mu.Lock()
		e.tr, e.codeLen, e.fromStore = tr, codeLen, true
		traces.bytes += tr.Bytes()
		traces.evictLocked()
		traces.mu.Unlock()
		tl.End(sp)
		return
	}
	tl.End(sp)
	if tl != nil {
		sp = tl.Begin("record", "record "+k.cipher+"/"+k.feat.String())
	}
	defer tl.End(sp)
	start := time.Now()
	m, err := machineFor(k)
	if err != nil {
		e.err = err
		return
	}
	if recordMaxInsts != 0 {
		m.MaxInsts = recordMaxInsts
	}
	tr, complete := emu.Record(m, maxTraceInsts, getRecBuf())
	elapsed := time.Since(start)

	traces.mu.Lock()
	tcCtr().recordNS.Add(elapsed.Nanoseconds())
	e.codeLen = len(m.Prog.Code)
	if !complete {
		if ferr := m.Err(); ferr != nil {
			// The machine faulted (instruction budget, runaway PC): the
			// prefix is not a session, so fail the key instead of caching
			// or resuming a truncated stream.
			putRecBuf(tr.Recs)
			e.err = fmt.Errorf("harness: recording %s: %w", k.cipher, ferr)
			traces.mu.Unlock()
			return
		}
		// Too large to retain: the recorded prefix plus the still-running
		// machine serve exactly one stream (which returns the borrowed
		// buffer when drained), then the entry marks the key as live-only.
		// Oversized traces are never persisted either — the resume path
		// stays live-only, warm or cold.
		e.resume = &releasingStream{s: tr.Resume(m), buf: tr.Recs}
		traces.mu.Unlock()
		return
	}
	// Retain an exact-size copy (slices.Clone does not zero-fill it
	// first); the oversized pooled buffer goes back.
	recs := slices.Clone(tr.Recs)
	putRecBuf(tr.Recs)
	tr = &emu.Trace{Prog: tr.Prog, Recs: recs}
	tcCtr().records.Inc()
	e.tr = tr
	traces.bytes += tr.Bytes()
	traces.evictLocked()
	traces.mu.Unlock()
	saveTraceToStore(k, tr)
}

// evictLocked enforces the byte budget, dropping least-recently-used
// complete traces. A stream already handed out keeps its trace alive only
// while its run lasts; the cache just forgets it.
func (c *traceCache) evictLocked() {
	for c.bytes > traceBudgetBytes {
		var victim traceKey
		var ve *traceEntry
		for k, e := range c.entries {
			if e.tr == nil {
				continue
			}
			if ve == nil || e.lastUse < ve.lastUse {
				victim, ve = k, e
			}
		}
		if ve == nil {
			return
		}
		c.bytes -= ve.tr.Bytes()
		delete(c.entries, victim)
		tcCtr().evictions.Inc()
	}
}

// acquire touches the key's entry in the LRU and runs its singleflight
// recording. It returns the entry and whether this request recorded it.
// A retained trace is never written after record publishes it, so the
// requests that share it read it as is: it is hashed only where it crosses
// the disk boundary (Store.Put on the way out; Store.Get, then
// Trace.Validate, on the way in).
func (c *traceCache) acquire(k traceKey) (*traceEntry, bool) {
	c.mu.Lock()
	e := c.entries[k]
	if e == nil {
		e = &traceEntry{}
		c.entries[k] = e
	}
	c.clock++
	e.lastUse = c.clock
	c.mu.Unlock()

	recorded := false
	e.once.Do(func() { recorded = true; e.record(k) })
	return e, recorded
}

// countReplay counts a request served by the entry's retained trace. A
// request that recorded the trace paid the functional emulation — a miss;
// any other request rides previously recorded state — a hit. A store
// fault-in counts as a hit even for the request that triggered it: it paid
// a disk load, not an emulation.
func (e *traceEntry) countReplay(recorded bool) {
	ctr := tcCtr()
	ctr.replays.Inc()
	if recorded && !e.fromStore {
		ctr.misses.Inc()
	} else {
		ctr.hits.Inc()
	}
}

// stream returns an ooo.Stream delivering the key's committed-path
// instruction stream, plus the static code length for I-cache warming.
// Cached keys replay without re-running the emulator.
func (c *traceCache) stream(k traceKey) (ooo.Stream, int, error) {
	e, recorded := c.acquire(k)
	if e.err != nil {
		return nil, 0, e.err
	}
	c.mu.Lock()
	tr, codeLen, resume := e.tr, e.codeLen, e.resume
	e.resume = nil // single-use
	c.mu.Unlock()
	ctr := tcCtr()
	switch {
	case tr != nil:
		e.countReplay(recorded)
		return tr.Stream(), codeLen, nil
	case resume != nil:
		ctr.resumes.Inc()
		if recorded {
			ctr.misses.Inc()
		} else {
			ctr.hits.Inc()
		}
		return resume, codeLen, nil
	}
	// Live-only: this request re-emulates, so it is a miss.
	ctr.liveFallbacks.Inc()
	ctr.misses.Inc()
	m, err := machineFor(k)
	if err != nil {
		return nil, 0, err
	}
	return &ooo.MachineStream{M: m}, len(m.Prog.Code), nil
}

// traceFor returns the key's complete retained trace (recording it on
// first request), or nil with no error when the key cannot be held as a
// complete trace — oversized sessions and live-only keys — in which case
// the caller must fall back to the serial stream path. Hit/miss traffic
// is only counted when a trace is returned: a recording triggered here
// still paid the emulation, but its one-shot resume stream is left for
// the serial fallback, which counts itself when it calls stream.
func (c *traceCache) traceFor(k traceKey) (*emu.Trace, int, error) {
	e, recorded := c.acquire(k)
	if e.err != nil {
		return nil, 0, e.err
	}
	c.mu.Lock()
	tr, codeLen := e.tr, e.codeLen
	c.mu.Unlock()
	if tr != nil {
		e.countReplay(recorded)
	}
	return tr, codeLen, nil
}

// StreamKernel returns the committed-path instruction stream of an
// encryption session, served from the trace cache when possible, plus the
// program's static instruction count. Callers that only inspect the
// stream (e.g. the op-mix measurement) share the same recorded emulation
// the timing runs replay. Records carry no result values;
// value-prediction experiments must keep using a live machine.
func StreamKernel(cipher string, feat isa.Feature, sessionBytes int, seed int64) (ooo.Stream, int, error) {
	return traces.stream(traceKey{cipher: cipher, feat: feat, session: sessionBytes, seed: seed, mode: modeEncrypt})
}

// StreamSetup is StreamKernel for a cipher's key-setup program, the
// stream TimeSetup times.
func StreamSetup(cipher string, feat isa.Feature, seed int64) (ooo.Stream, int, error) {
	return traces.stream(traceKey{cipher: cipher, feat: feat, seed: seed, mode: modeSetup})
}

// setupKeyIV derives the deterministic key/IV TimeSetup uses.
func setupKeyIV(k *kernels.Kernel, seed int64) (key, iv []byte) {
	rng := rand.New(rand.NewSource(seed))
	key = make([]byte, k.KeyBytes)
	rng.Read(key)
	iv = make([]byte, max(k.BlockBytes, 8))
	rng.Read(iv)
	return key, iv
}
