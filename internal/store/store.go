// Package store is the persistent content-addressed result store: an
// on-disk cache of finished cell results under .simstore/ that survives
// process exit, so a warm sweep re-simulates only the cells the current
// diff invalidated and loads the rest in milliseconds.
//
// Entries are addressed by FNV-1a content-hash keys over their complete
// identity (key.go) — the emulator and engine versions, the kernel program
// bytes, the session parameters, the machine configuration. Identity lives
// entirely in the key: the store never updates an entry in place, and a
// change to any identity field derives a different key, so staleness is
// structurally impossible; the only failure modes left are capacity (LRU
// eviction against a byte budget) and corruption (a 64-bit CRC-32C/CRC-32
// payload sum, check.NewSum64, taken by Put as it writes and verified on
// every load; corrupt entries are deleted, counted, and reported as misses
// so the caller recomputes exactly once).
//
// Writes are atomic (temp file + rename into place), so a crashed or
// concurrent writer can never leave a half-written entry under a live key;
// at worst a truncated temp file leaks and is swept at the next Open.
// Traffic counters ride on the shared metrics registry (store.* names) and
// reach perfbench and asplos2000 -json via ReadStats.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cryptoarch/internal/check"
	"cryptoarch/internal/metrics"
)

// SchemaVersion identifies the on-disk entry format and key schema. It is
// hashed into every key and stamped into MANIFEST.json; bumping it makes
// every old entry unreachable and makes Open refuse old directories with
// ErrStale rather than silently mixing formats. Version 2 replaced the
// FNV-1a payload sum of version 1 with check.NewSum64. Version 3 dropped
// the trace tier: a version-2 directory holds a trace/ subdirectory that
// this code would neither index nor evict.
const SchemaVersion = 3

// ErrStale marks a store directory whose manifest disagrees with this
// binary's schema (or a populated directory with no manifest at all).
// Callers decide policy: asplos2000 refuses -write against a stale store
// and otherwise warns and runs storeless.
var ErrStale = errors.New("store: directory schema is stale")

// Tier and the tier argument of Get, Put and EntryPath stay only for perfbench.
type Tier int

// TierResult is the store's one namespace, finished cell results; it stays only for perfbench.
const TierResult Tier = 0

// resultDir is the subdirectory that holds the entries.
const resultDir = "result"

// Entry file layout: a 24-byte header followed by the payload. The magic
// names the header format: a "simstor1" entry (FNV-1a sum) fails the magic
// check and is dropped as corrupt even under a current manifest.
const (
	entryMagic  = "simstor2"
	headerBytes = 24 // magic(8) | payload len LE64 | check.NewSum64 sum LE64
)

// checksum is the payload integrity sum, check.NewSum64 (CRC-32C in the
// high half, CRC-32 in the low). Put computes it over the payload it
// writes and Get verifies it on every load.
func checksum(payload []byte) uint64 {
	h := check.NewSum64()
	h.Write(payload)
	return h.Sum64()
}

// manifest is the MANIFEST.json shape.
type manifest struct {
	SchemaVersion int `json:"schema_version"`
}

// manifestFile is the manifest's file name inside the store directory.
const manifestFile = "MANIFEST.json"

// entry is the in-memory index of one on-disk entry.
type entry struct {
	size    int64  // file size including header
	lastUse uint64 // store clock at last touch (LRU)
}

// Store is a handle on one store directory. All methods are safe for
// concurrent use and are no-ops (reporting misses without counting) on a
// nil *Store, so call sites need no "is the store on" branches.
type Store struct {
	mu      sync.Mutex
	root    string
	budget  int64
	bytes   int64
	clock   uint64
	entries map[string]*entry // key -> entry

	fs     FS          // filesystem seam (osFS in production, FaultFS in chaos tests)
	retry  retryPolicy // transient-error backoff
	tmpSeq atomic.Uint64

	// degraded flips once on a persistent I/O failure: from then on every
	// Get misses and every Put is dropped, so the sweep recomputes instead
	// of fighting a broken disk. degradeErr keeps the failure that tripped
	// it for Stats and diagnostics.
	degraded   atomic.Bool
	degradeErr atomic.Pointer[error]
}

// Open opens (creating if needed) the store directory with the given byte
// budget and returns a handle. A populated directory whose manifest is
// missing or names a different schema returns ErrStale (wrapped) — the
// caller chooses between refusing and running storeless; Open never
// deletes a stale directory. Existing entries are indexed in file-mtime
// order so LRU eviction order survives across processes.
func Open(dir string, budget int64) (*Store, error) {
	return OpenFS(dir, budget, osFS{})
}

// OpenFS is Open on an explicit filesystem implementation — the chaos
// tests' entry point for injecting I/O faults under every store code
// path.
func OpenFS(dir string, budget int64, fsys FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if budget <= 0 {
		return nil, fmt.Errorf("store: non-positive byte budget %d", budget)
	}
	if fsys == nil {
		fsys = osFS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{root: dir, budget: budget, entries: make(map[string]*entry), fs: fsys, retry: defaultRetry()}
	if err := s.checkManifest(); err != nil {
		return nil, err
	}
	type scanned struct {
		key   string
		size  int64
		mtime time.Time
	}
	var found []scanned
	rd := filepath.Join(dir, resultDir)
	if err := fsys.MkdirAll(rd, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	des, err := fsys.ReadDir(rd)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range des {
		if !de.Type().IsRegular() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, scanned{key: de.Name(), size: info.Size(), mtime: info.ModTime()})
	}
	// Sweep temp files a crashed writer may have left in the root. A live
	// writer's temps are never here: mid-run write and rename failures
	// remove their temp immediately (writeFileAtomic), so this sweep only
	// ever sees the residue of a process that died between write and
	// rename.
	if des, err := fsys.ReadDir(dir); err == nil {
		for _, de := range des {
			if de.Type().IsRegular() && strings.HasPrefix(de.Name(), "put-") {
				fsys.Remove(filepath.Join(dir, de.Name()))
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, f := range found {
		s.clock++
		s.entries[f.key] = &entry{size: f.size, lastUse: s.clock}
		s.bytes += f.size
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// checkManifest validates or creates MANIFEST.json. A missing manifest is
// only acceptable in an unpopulated directory (a fresh store); anything
// else is ErrStale.
func (s *Store) checkManifest() error {
	path := filepath.Join(s.root, manifestFile)
	b, err := s.fs.ReadFile(path)
	switch {
	case err == nil:
		var m manifest
		if json.Unmarshal(b, &m) != nil || m.SchemaVersion != SchemaVersion {
			return fmt.Errorf("%w: %s has schema %s, want %d",
				ErrStale, path, manifestSchema(b), SchemaVersion)
		}
		return nil
	case os.IsNotExist(err):
		if des, derr := s.fs.ReadDir(filepath.Join(s.root, resultDir)); derr == nil && len(des) > 0 {
			return fmt.Errorf("%w: %s is populated but has no %s",
				ErrStale, s.root, manifestFile)
		}
		mb, _ := json.Marshal(manifest{SchemaVersion: SchemaVersion})
		return s.writeFileAtomic(path, append(mb, '\n'))
	default:
		return fmt.Errorf("store: %w", err)
	}
}

// manifestSchema renders the schema version of raw manifest bytes for the
// ErrStale message ("?" when unparseable).
func manifestSchema(b []byte) string {
	var m manifest
	if json.Unmarshal(b, &m) != nil {
		return "?"
	}
	return fmt.Sprintf("%d", m.SchemaVersion)
}

// Root returns the store directory ("" on a nil store).
func (s *Store) Root() string {
	if s == nil {
		return ""
	}
	return s.root
}

// EntryPath returns the file path an entry lives at (whether or not it
// exists). Corruption tests use it to truncate and bit-flip entries.
func (s *Store) EntryPath(_ Tier, key string) string {
	if s == nil {
		return ""
	}
	return s.path(key)
}

// path is the file an entry lives at.
func (s *Store) path(key string) string { return filepath.Join(s.root, resultDir, key) }

// BytesUsed returns the current accounted size of the store.
func (s *Store) BytesUsed() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Get loads an entry's payload, verifying the header (magic and length)
// and the check.NewSum64 payload sum. A missing entry is a plain miss. A
// corrupted, truncated or old-format entry is deleted from disk, counted
// on the corrupt counter, and reported as a miss — the caller recomputes
// and Puts, so corruption costs exactly one re-computation. The returned
// sum is the payload checksum from the verified header.
func (s *Store) Get(_ Tier, key string) (payload []byte, sum uint64, ok bool) {
	if s == nil || s.degraded.Load() {
		return nil, 0, false
	}
	c := ctr()
	start := time.Now()
	path := s.path(key)
	var data []byte
	err := s.retry.do(func() error {
		var e error
		data, e = s.fs.ReadFile(path)
		return e
	})
	if err != nil {
		c.resultMisses.Inc()
		if !errors.Is(err, fs.ErrNotExist) {
			// A read that failed after retries (or deterministically) is a
			// broken disk, not a cold cache: degrade rather than pay the
			// retry tax on every future key.
			s.degrade(err)
		}
		return nil, 0, false
	}
	if len(data) < headerBytes ||
		string(data[:8]) != entryMagic ||
		binary.LittleEndian.Uint64(data[8:16]) != uint64(len(data)-headerBytes) {
		s.dropCorrupt(key, path)
		return nil, 0, false
	}
	payload = data[headerBytes:]
	sum = binary.LittleEndian.Uint64(data[16:24])
	if checksum(payload) != sum {
		s.dropCorrupt(key, path)
		return nil, 0, false
	}
	c.loadNS.Add(time.Since(start).Nanoseconds())
	c.resultHits.Inc()
	s.mu.Lock()
	s.clock++
	if e := s.entries[key]; e != nil {
		e.lastUse = s.clock
	} else {
		// Written by another process since Open; adopt it.
		s.entries[key] = &entry{size: int64(len(data)), lastUse: s.clock}
		s.bytes += int64(len(data))
		s.evictLocked()
	}
	s.mu.Unlock()
	// Touch the file so cross-process LRU order tracks use, not creation.
	// Best-effort: a failed touch only skews cross-process LRU recency.
	now := time.Now()
	s.fs.Chtimes(path, now, now)
	return payload, sum, true
}

// degrade flips the store into its no-op shell, counting the transition
// once and keeping the triggering error. Concurrent failures race
// benignly: the first to flip wins the counter, every loser's error is
// equivalent evidence.
func (s *Store) degrade(err error) {
	if s.degraded.CompareAndSwap(false, true) {
		s.degradeErr.Store(&err)
		ctr().degraded.Inc()
	}
}

// Degraded reports whether the store has given up on its disk, and the
// persistent I/O failure that made it. A degraded store stays safe to
// call — every operation is a cheap miss/no-op — so callers only need
// this for reporting.
func (s *Store) Degraded() (bool, error) {
	if s == nil || !s.degraded.Load() {
		return false, nil
	}
	if p := s.degradeErr.Load(); p != nil {
		return true, *p
	}
	return true, nil
}

// dropCorrupt deletes a failed-verification entry and counts it. The miss
// counter advances too: the caller pays a re-computation either way, and
// hit+miss must keep summing to requests.
func (s *Store) dropCorrupt(key, path string) {
	c := ctr()
	c.corrupt.Inc()
	c.resultMisses.Inc()
	s.fs.Remove(path)
	s.mu.Lock()
	if e := s.entries[key]; e != nil {
		s.bytes -= e.size
		delete(s.entries, key)
	}
	s.mu.Unlock()
}

// Put writes an entry atomically: the header and the payload go into a
// temp file in the store root as two parts, never joined in memory, and
// the file is then renamed into place. The header carries the payload's
// checksum, computed here: a payload is hashed where it crosses the disk
// boundary, whoever built it. fsync'd order is not required: a torn write
// fails the checksum and self-heals as a corrupt miss. Payloads that alone
// exceed the byte budget are silently not stored. Overwriting an existing
// key is allowed and idempotent — content addressing means the bytes are
// identical anyway. Transient write/rename failures are retried with
// backoff; a persistent one degrades the store (future Puts become free
// no-ops) and returns the error for counting.
func (s *Store) Put(_ Tier, key string, payload []byte) error {
	if s == nil || s.degraded.Load() {
		return nil
	}
	if int64(len(payload))+headerBytes > s.budget {
		return nil
	}
	c := ctr()
	start := time.Now()
	var hdr [headerBytes]byte
	copy(hdr[:], entryMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint64(hdr[16:24], checksum(payload))
	if err := s.writeFileAtomic(s.path(key), hdr[:], payload); err != nil {
		s.degrade(err)
		return fmt.Errorf("store: %w", err)
	}
	size := int64(headerBytes + len(payload))
	s.mu.Lock()
	s.clock++
	if e := s.entries[key]; e != nil {
		s.bytes -= e.size
	}
	s.entries[key] = &entry{size: size, lastUse: s.clock}
	s.bytes += size
	s.evictLocked()
	s.mu.Unlock()
	c.writes.Inc()
	c.writeNS.Add(time.Since(start).Nanoseconds())
	return nil
}

// tempName returns a fresh temp path in the store root. The "put-" prefix
// is the crash-sweep contract with Open; pid + sequence keeps concurrent
// processes and goroutines from colliding.
func (s *Store) tempName() string {
	return filepath.Join(s.root, fmt.Sprintf("put-%d-%d", os.Getpid(), s.tmpSeq.Add(1)))
}

// writeFileAtomic writes the parts, back to back, via temp + rename,
// retrying transient failures with backoff. Every failed attempt removes
// its temp file immediately — a mid-run write or rename error must not
// leave residue for the next Open to sweep
// (TestChaosWriteFailureLeavesNoTempResidue).
func (s *Store) writeFileAtomic(path string, parts ...[]byte) error {
	return s.retry.do(func() error {
		tmp := s.tempName()
		if err := s.fs.WriteFile(tmp, 0o644, parts...); err != nil {
			s.fs.Remove(tmp)
			return err
		}
		if err := s.fs.Rename(tmp, path); err != nil {
			s.fs.Remove(tmp)
			return err
		}
		return nil
	})
}

// evictLocked enforces the byte budget by deleting least-recently-used
// entries. Caller holds s.mu.
func (s *Store) evictLocked() {
	for s.bytes > s.budget && len(s.entries) > 0 {
		var victim string
		var ve *entry
		for key, e := range s.entries {
			if ve == nil || e.lastUse < ve.lastUse {
				victim, ve = key, e
			}
		}
		s.bytes -= ve.size
		delete(s.entries, victim)
		s.fs.Remove(s.path(victim))
		ctr().evictions.Inc()
	}
}

// counters holds the registry handles of the store counters, rebound
// whenever the harness swaps the telemetry registry. All handles are nil
// when telemetry is disabled; every update site then no-ops.
type counters struct {
	resultHits, resultMisses *metrics.Counter
	writes, evictions        *metrics.Counter
	corrupt                  *metrics.Counter
	retries, degraded        *metrics.Counter
	loadNS, writeNS          *metrics.Counter
}

var ctrPtr atomic.Pointer[counters]

func init() { Rebind(nil) }

// Rebind points the store counters at a registry (nil disables them). The
// harness calls this from SetMetrics so store traffic lands on the same
// registry as everything else.
func Rebind(r *metrics.Registry) {
	ctrPtr.Store(&counters{
		resultHits:   r.Counter("store.result_hits"),
		resultMisses: r.Counter("store.result_misses"),
		writes:       r.Counter("store.writes"),
		evictions:    r.Counter("store.evictions"),
		corrupt:      r.Counter("store.corrupt"),
		retries:      r.Counter("store.retries"),
		degraded:     r.Counter("store.degraded"),
		loadNS:       r.Counter("store.load_ns"),
		writeNS:      r.Counter("store.write_ns"),
	})
}

// ctr returns the current counter handles (never nil; the handles inside
// are nil when telemetry is off).
func ctr() *counters { return ctrPtr.Load() }

// ResetCounters zeroes the store counters in place (handles stay valid).
// experiments.ResetCache and the benchmarks use it so hit/miss state does
// not leak across timed passes or worker-count configurations.
func ResetCounters() {
	c := ctr()
	for _, k := range []*metrics.Counter{
		c.resultHits, c.resultMisses,
		c.writes, c.evictions, c.corrupt, c.retries, c.degraded,
		c.loadNS, c.writeNS,
	} {
		k.Reset()
	}
}

// Stats is the stable JSON view of the store counters, assembled from the
// registry the same way TraceCacheStats is.
type Stats struct {
	TraceHits    int           `json:"trace_hits"` // always 0; stays only for perfbench
	ResultHits   int           `json:"result_hits"`
	ResultMisses int           `json:"result_misses"`
	Writes       int           `json:"writes"`
	Evictions    int           `json:"evictions"`
	Corrupt      int           `json:"corrupt"`
	Retries      int           `json:"retries"`
	Degraded     int           `json:"degraded"`
	LoadTime     time.Duration `json:"load_time_ns"`
	WriteTime    time.Duration `json:"write_time_ns"`
}

// ReadStats returns a snapshot of the store counters.
func ReadStats() Stats {
	c := ctr()
	return Stats{
		ResultHits:   int(c.resultHits.Value()),
		ResultMisses: int(c.resultMisses.Value()),
		Writes:       int(c.writes.Value()),
		Evictions:    int(c.evictions.Value()),
		Corrupt:      int(c.corrupt.Value()),
		Retries:      int(c.retries.Value()),
		Degraded:     int(c.degraded.Value()),
		LoadTime:     time.Duration(c.loadNS.Value()),
		WriteTime:    time.Duration(c.writeNS.Value()),
	}
}
