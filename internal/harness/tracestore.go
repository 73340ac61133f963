package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/store"
)

// This file threads the persistent content-addressed store under the
// in-memory trace cache. The cache stays the fast path and the unit of
// singleflight; the store is a write-through/read-back layer underneath
// it: record() faults a missing trace in from disk before paying
// functional emulation, and persists every freshly recorded complete
// trace. Store entries are keyed by the full trace identity — emulator
// version, kernel program digest, feature level, session, seed, mode — so
// an edit to any of them misses and re-records instead of replaying stale
// dynamics.

var storePtr atomic.Pointer[store.Store]

// SetStore installs the process-wide persistent store (nil, the default,
// disables persistence) and returns the previous one, so commands and
// tests can swap a store in and restore. The in-memory trace cache works
// identically with or without one; only cold-start cost changes.
func SetStore(s *store.Store) (prev *store.Store) {
	return storePtr.Swap(s)
}

// CurrentStore returns the installed store, or nil when persistence is
// off.
func CurrentStore() *store.Store { return storePtr.Load() }

// String names the trace mode for store keys and diagnostics.
func (m traceMode) String() string {
	switch m {
	case modeDecrypt:
		return "decrypt"
	case modeSetup:
		return "setup"
	}
	return "encrypt"
}

// progFor assembles the static program a key's trace was recorded against.
// Kernel builds are pure functions of (cipher, kind, feat), so the program
// is content-identical to the one the recording machine ran — that is
// exactly what the digest in the store key certifies.
func progFor(k traceKey) (*isa.Program, error) {
	kern, err := kernels.Get(k.cipher)
	if err != nil {
		return nil, err
	}
	return kern.ProgramFor(k.mode.String(), k.feat)
}

// digestCache memoizes kernel program digests: programs are immutable
// within a process, and hashing a few thousand instructions per cell
// request would be pointless work.
var digestCache struct {
	mu sync.Mutex
	m  map[traceKey]string
}

// digestFor returns the content digest of the key's program (session and
// seed do not participate; the cache key zeroes them).
func digestFor(k traceKey) (string, error) {
	ck := traceKey{cipher: k.cipher, feat: k.feat, mode: k.mode}
	digestCache.mu.Lock()
	d, ok := digestCache.m[ck]
	digestCache.mu.Unlock()
	if ok {
		return d, nil
	}
	prog, err := progFor(ck)
	if err != nil {
		return "", err
	}
	d = store.ProgramDigest(prog)
	digestCache.mu.Lock()
	if digestCache.m == nil {
		digestCache.m = make(map[traceKey]string)
	}
	digestCache.m[ck] = d
	digestCache.mu.Unlock()
	return d, nil
}

// KernelDigest returns the content digest of a cipher's assembled program
// of one kind ("encrypt", "decrypt" or "setup") at a feature level. The
// result-tier store keys embed it, so any kernel edit provably invalidates
// every stored result that executed those bytes.
func KernelDigest(cipher string, feat isa.Feature, kind string) (string, error) {
	var mode traceMode
	switch kind {
	case "encrypt":
		mode = modeEncrypt
	case "decrypt":
		mode = modeDecrypt
	case "setup":
		mode = modeSetup
	default:
		return "", fmt.Errorf("harness: unknown kernel kind %q", kind)
	}
	return digestFor(traceKey{cipher: cipher, feat: feat, mode: mode})
}

// storeKeyFor derives the trace-tier store key of a cache key.
func storeKeyFor(k traceKey) (string, error) {
	d, err := digestFor(k)
	if err != nil {
		return "", err
	}
	return store.TraceIdentity{
		EmuVersion: emu.Version,
		Cipher:     k.cipher,
		Feat:       k.feat.String(),
		ProgDigest: d,
		Session:    k.session,
		Seed:       k.seed,
		Mode:       k.mode.String(),
	}.Key(), nil
}

// encodeRecs returns the on-disk payload of trace records: one
// emu.EncodeTraceRec encoding per record. Where the host layout is that
// encoding (emu.RecBytes) the payload is the records' own memory, not a
// copy, so it must not be written; Store.Put only reads and sums it.
func encodeRecs(recs []emu.TraceRec) []byte {
	if b, ok := emu.RecBytes(recs); ok {
		return b
	}
	b := make([]byte, len(recs)*emu.TraceRecBytes)
	for i := range recs {
		emu.EncodeTraceRec(b[i*emu.TraceRecBytes:], &recs[i])
	}
	return b
}

// decodeRecs unpacks an on-disk payload into fresh records — one copy
// where the host layout is the encoding; false on a torn length.
func decodeRecs(b []byte) ([]emu.TraceRec, bool) {
	if len(b)%emu.TraceRecBytes != 0 {
		return nil, false
	}
	recs := make([]emu.TraceRec, len(b)/emu.TraceRecBytes)
	if view, ok := emu.RecBytes(recs); ok {
		copy(view, b)
		return recs, true
	}
	for i := range recs {
		recs[i] = emu.DecodeTraceRec(b[i*emu.TraceRecBytes:])
	}
	return recs, true
}

// loadTraceFromStore tries to fault a complete trace in from the
// persistent store. The store has verified the entry's header and payload
// sum; the decoded trace is then structurally validated (Trace.Validate)
// against the freshly assembled program and returned with its static code
// length. Every failure (no store, key underivable, store miss,
// undecodable payload, validation) is just "not ok": the caller records
// live, exactly as if the store did not exist.
func loadTraceFromStore(k traceKey) (*emu.Trace, int, bool) {
	s := CurrentStore()
	if s == nil {
		return nil, 0, false
	}
	key, err := storeKeyFor(k)
	if err != nil {
		return nil, 0, false
	}
	payload, _, ok := s.Get(store.TierTrace, key)
	if !ok {
		return nil, 0, false
	}
	recs, ok := decodeRecs(payload)
	if !ok {
		return nil, 0, false
	}
	prog, err := progFor(k)
	if err != nil {
		return nil, 0, false
	}
	tr := &emu.Trace{Prog: prog, Recs: recs}
	if tr.Validate() != nil {
		return nil, 0, false
	}
	return tr, len(prog.Code), true
}

// saveTraceToStore persists a freshly recorded complete trace
// (write-through); Store.Put sums the payload as it writes it. With no
// store installed nothing is encoded or hashed. Oversized sessions never
// reach here — they are not retained in memory either. Errors are
// deliberately dropped: persistence is an accelerator, and a full disk
// must not fail a simulation run.
func saveTraceToStore(k traceKey, tr *emu.Trace) {
	s := CurrentStore()
	if s == nil {
		return
	}
	key, err := storeKeyFor(k)
	if err != nil {
		return
	}
	s.Put(store.TierTrace, key, encodeRecs(tr.Recs))
}
