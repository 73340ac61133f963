package experiments

import (
	"encoding/json"
	"fmt"
	"sync"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
	"cryptoarch/internal/pubkey"
	"cryptoarch/internal/store"
)

// This file threads the persistent result store under the sweep's run
// cache: getCell consults the store before dispatching a cell and
// persists every successfully executed one, so a warm sweep re-simulates
// only cells whose identity — engine version, emulator version, kernel
// bytes, session parameters, machine configuration — the current tree
// changed. Cells running under an approximate CellBudget bypass the store
// in both directions: sampled results carry error bounds and must never
// be served where exact results are expected (the same honesty rule as
// the -write refusal under a budget).

// cellStoreKey derives the store key of a cell, or ok=false
// for cells whose identity cannot be derived (unknown cipher, kind without
// a program). The key embeds the digest of the exact program the cell
// executes, so any kernel edit provably misses.
func cellStoreKey(c Cell) (string, bool) {
	var digest string
	var err error
	id := store.ResultIdentity{
		EngineVersion: ooo.EngineVersion,
		EmuVersion:    emu.Version,
		Kind:          c.Kind.String(),
		Cipher:        c.Cipher,
		Feat:          c.Feat.String(),
		Session:       c.Session,
		Seed:          c.Seed,
		// %#v, not %+v: Config implements Stringer (just its name), and
		// %+v would collapse the identity to that — two configs sharing a
		// name but differing in a knob would collide. The Go-syntax form
		// renders every field and ignores Stringer.
		Config: fmt.Sprintf("%#v", c.Cfg),
	}
	switch c.Kind {
	case CellKernel, CellCount, CellMix, CellValuePred:
		digest, err = harness.KernelDigest(c.Cipher, c.Feat, "encrypt")
	case CellDecrypt:
		digest, err = harness.KernelDigest(c.Cipher, c.Feat, "decrypt")
	case CellSetup:
		digest, err = harness.KernelDigest(c.Cipher, c.Feat, "setup")
	case CellHandshake:
		// The handshake cell's parameters are fixed in fig2.go rather than
		// carried on the Cell; fold them into the identity explicitly so
		// editing them (or the modexp kernel) invalidates stored results.
		digest = handshakeDigest()
		id.Feat = handshakeFeat.String()
		id.Seed = handshakeSeed
		id.Config = fmt.Sprintf("crt=%d", handshakeCRTSpeedup)
	default:
		return "", false
	}
	if err != nil || digest == "" {
		return "", false
	}
	id.ProgDigest = digest
	return id.Key(), true
}

// handshakeDig memoizes the modexp program digest (programs are immutable
// within a process).
var handshakeDig struct {
	once sync.Once
	d    string
}

func handshakeDigest() string {
	handshakeDig.once.Do(func() {
		handshakeDig.d = store.ProgramDigest(pubkey.BuildModExp(handshakeFeat))
	})
	return handshakeDig.d
}

// storedMix is the on-disk form of opMix.
type storedMix struct {
	Counts []uint64 `json:"counts"`
	Total  uint64   `json:"total"`
}

// storedVP is the on-disk form of vpRow. Go's float64 JSON encoding
// round-trips exactly, so a store-warm report renders bit-identical
// percentages.
type storedVP struct {
	Best  float64 `json:"best"`
	Mean  float64 `json:"mean"`
	Edges int     `json:"edges"`
}

// storedCell is the store payload: exactly one field group is set,
// matching the cell kind (the same discipline as cellResult itself).
type storedCell struct {
	Stats *ooo.Stats `json:"stats,omitempty"`
	N     uint64     `json:"n,omitempty"`
	Mix   *storedMix `json:"mix,omitempty"`
	VP    *storedVP  `json:"vp,omitempty"`
}

// loadCellFromStore tries to fill r from the persistent store. Any
// failure — no store, budget active, key underivable, miss, undecodable
// or shape-mismatched payload — returns false and the cell executes
// normally.
func loadCellFromStore(c Cell, r *cellResult) bool {
	s := harness.CurrentStore()
	if s == nil || GetCellBudget() != nil {
		return false
	}
	key, ok := cellStoreKey(c)
	if !ok {
		return false
	}
	payload, _, ok := s.Get(store.TierResult, key)
	if !ok {
		return false
	}
	var sc storedCell
	if json.Unmarshal(payload, &sc) != nil {
		return false
	}
	switch c.Kind {
	case CellKernel, CellSetup, CellDecrypt:
		if sc.Stats == nil {
			return false
		}
		r.stats = sc.Stats
	case CellCount, CellHandshake:
		r.n = sc.N
	case CellMix:
		if sc.Mix == nil || len(sc.Mix.Counts) != int(isa.NumClasses) {
			return false
		}
		copy(r.mix.counts[:], sc.Mix.Counts)
		r.mix.total = sc.Mix.Total
	case CellValuePred:
		if sc.VP == nil {
			return false
		}
		r.vp = vpRow{best: sc.VP.Best, mean: sc.VP.Mean, edges: sc.VP.Edges}
	default:
		return false
	}
	return true
}

// StoreReport renders the persistent-store counters as a report — a view
// of this invocation, like TraceCacheReport: it joins asplos2000 -json
// output but never EXPERIMENTS.md.
func StoreReport() *Report {
	st := store.ReadStats()
	return &Report{
		ID:      "result-store",
		Title:   "persistent content-addressed store counters for this invocation",
		Columns: []string{"counter", "value"},
		Rows: [][]string{
			{"result_hits", fmt.Sprintf("%d", st.ResultHits)},
			{"result_misses", fmt.Sprintf("%d", st.ResultMisses)},
			{"writes", fmt.Sprintf("%d", st.Writes)},
			{"evictions", fmt.Sprintf("%d", st.Evictions)},
			{"corrupt", fmt.Sprintf("%d", st.Corrupt)},
			{"load_seconds", fmt.Sprintf("%.3f", st.LoadTime.Seconds())},
			{"write_seconds", fmt.Sprintf("%.3f", st.WriteTime.Seconds())},
		},
	}
}

// saveCellToStore persists a freshly executed cell result (write-through).
// Errored cells are never stored — an error must re-execute, and possibly
// resolve, on the next run — and budgeted (approximate) results are
// excluded entirely.
func saveCellToStore(c Cell, r *cellResult) {
	s := harness.CurrentStore()
	if s == nil || GetCellBudget() != nil || r.err != nil {
		return
	}
	key, ok := cellStoreKey(c)
	if !ok {
		return
	}
	sc := storedCell{}
	switch c.Kind {
	case CellKernel, CellSetup, CellDecrypt:
		sc.Stats = r.stats
	case CellCount, CellHandshake:
		sc.N = r.n
	case CellMix:
		sc.Mix = &storedMix{Counts: r.mix.counts[:], Total: r.mix.total}
	case CellValuePred:
		sc.VP = &storedVP{Best: r.vp.best, Mean: r.vp.mean, Edges: r.vp.edges}
	default:
		return
	}
	payload, err := json.Marshal(&sc)
	if err != nil {
		return
	}
	s.Put(store.TierResult, key, payload)
}
