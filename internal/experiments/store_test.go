package experiments

import (
	"os"
	"testing"
	"time"

	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/metrics"
	"cryptoarch/internal/ooo"
	"cryptoarch/internal/store"
)

// installTempStore opens a fresh persistent store in a temp directory,
// installs it, and restores the previous store and clean caches when the
// test ends.
func installTempStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	ResetCache()
	prev := harness.SetStore(s)
	t.Cleanup(func() {
		harness.SetStore(prev)
		ResetCache()
	})
	return s
}

// TestStoreWarmSweepEquivalence is the golden incremental-sweep gate: the
// full experiment suite is regenerated cold (populating the store), the
// in-process caches are dropped, and the suite is regenerated warm purely
// from stored results. The warm rendering must be byte-identical to the
// cold one, re-simulate nothing, and finish far faster — the PR's
// acceptance bar is 5x; real warm passes are orders of magnitude beyond
// it.
func TestStoreWarmSweepEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full experiment suite twice")
	}
	installTempStore(t)
	defer SetParallelism(SetParallelism(1)) // evaluated now: restores the entry value
	SetParallelism(1)

	render := func() map[string]string {
		out := map[string]string{}
		for _, g := range All() {
			r, err := g.Run()
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			out[g.Name] = r.Text()
		}
		return out
	}

	coldStart := time.Now()
	cold := render()
	coldTime := time.Since(coldStart)
	cst := store.ReadStats()
	if cst.Writes == 0 || cst.ResultMisses == 0 {
		t.Fatalf("cold pass did not populate the store: %+v", cst)
	}

	// Drop every in-process cache; only the disk store survives.
	ResetCache()
	warmStart := time.Now()
	warm := render()
	warmTime := time.Since(warmStart)

	for _, g := range All() {
		if cold[g.Name] != warm[g.Name] {
			t.Errorf("%s: store-warm rendering differs from cold\n--- cold ---\n%s\n--- warm ---\n%s",
				g.Name, cold[g.Name], warm[g.Name])
		}
	}
	wst := store.ReadStats()
	if wst.ResultMisses != 0 {
		t.Errorf("warm pass re-simulated %d cells, want 0 (stats %+v)", wst.ResultMisses, wst)
	}
	if wst.ResultHits == 0 {
		t.Errorf("warm pass never consulted the store: %+v", wst)
	}
	if tc := harness.ReadTraceCacheStats(); tc.Records != 0 {
		t.Errorf("warm pass paid %d functional recordings, want 0", tc.Records)
	}
	t.Logf("cold %v, warm %v (%.0fx)", coldTime, warmTime, float64(coldTime)/float64(warmTime))
	if warmTime*5 > coldTime {
		t.Errorf("warm sweep not 5x faster than cold: cold %v, warm %v", coldTime, warmTime)
	}
}

// TestStoreCorruptionRecompute drives the corruption protocol end to end
// through the cell cache: a bit-flipped result entry is detected on load,
// deleted, counted, recomputed once and written back with identical
// Stats, and the healed entry then serves the cell without executing it.
func TestStoreCorruptionRecompute(t *testing.T) {
	defer harness.SetMetrics(harness.SetMetrics(metrics.NewRegistry()))
	s := installTempStore(t)
	runs := harness.Metrics().Counter("ooo.runs")
	c := Cell{Kind: CellKernel, Cipher: "blowfish", Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: 512, Seed: 21}
	cold := getCell(c, false)
	if cold.err != nil {
		t.Fatal(cold.err)
	}
	key, ok := cellStoreKey(c)
	if !ok {
		t.Fatal("no store key for a plain kernel cell")
	}
	path := s.EntryPath(store.TierResult, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("result was not stored: %v", err)
	}
	raw[len(raw)-5] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	ResetCache()
	before := runs.Value()
	r := getCell(c, false)
	if r.err != nil {
		t.Fatalf("cell over a corrupt store entry: %v", r.err)
	}
	st := store.ReadStats()
	if st.Corrupt != 1 || st.ResultMisses != 1 || st.ResultHits != 0 || st.Writes != 1 {
		t.Fatalf("store stats %+v: want 1 corrupt entry counted as a miss, then 1 write", st)
	}
	if n := runs.Value() - before; n != 1 {
		t.Fatalf("corrupt entry cost %d engine runs, want exactly 1", n)
	}
	if *r.stats != *cold.stats {
		t.Fatalf("recomputed stats differ:\ncold %+v\nrecomputed %+v", cold.stats, r.stats)
	}

	// The healed entry now serves the cell with no execution.
	ResetCache()
	before = runs.Value()
	r = getCell(c, false)
	if st := store.ReadStats(); st.ResultHits != 1 || st.ResultMisses != 0 || st.Corrupt != 0 || st.Writes != 0 {
		t.Fatalf("store stats %+v: healed entry did not hit cleanly", st)
	}
	if n := runs.Value() - before; n != 0 {
		t.Fatalf("healed entry still ran the engine %d times", n)
	}
	if r.err != nil || *r.stats != *cold.stats {
		t.Fatalf("healed entry served %+v (err %v), want %+v", r.stats, r.err, cold.stats)
	}
}

// TestCellStoreKeySensitivity pins that every identity field of a cell
// reaches its store key, so editing any of them provably misses.
// Engine/emulator version and kernel-digest sensitivity are pinned
// at the store layer (TestResultKeySensitivity, TestProgramDigestSensitivity);
// here the cell-level plumbing is under test.
func TestCellStoreKeySensitivity(t *testing.T) {
	base := Cell{Kind: CellKernel, Cipher: "blowfish", Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: 4096, Seed: DefaultSeed}
	baseKey, ok := cellStoreKey(base)
	if !ok {
		t.Fatal("no key for a plain kernel cell")
	}
	cfgEdit := ooo.FourWide
	cfgEdit.IssueWidth++
	mutants := map[string]Cell{
		"Kind":    {Kind: CellDecrypt, Cipher: base.Cipher, Feat: base.Feat, Cfg: base.Cfg, Session: base.Session, Seed: base.Seed},
		"Cipher":  {Kind: base.Kind, Cipher: "rc4", Feat: base.Feat, Cfg: base.Cfg, Session: base.Session, Seed: base.Seed},
		"Feat":    {Kind: base.Kind, Cipher: base.Cipher, Feat: isa.FeatNoRot, Cfg: base.Cfg, Session: base.Session, Seed: base.Seed},
		"Cfg":     {Kind: base.Kind, Cipher: base.Cipher, Feat: base.Feat, Cfg: cfgEdit, Session: base.Session, Seed: base.Seed},
		"Session": {Kind: base.Kind, Cipher: base.Cipher, Feat: base.Feat, Cfg: base.Cfg, Session: 8192, Seed: base.Seed},
		"Seed":    {Kind: base.Kind, Cipher: base.Cipher, Feat: base.Feat, Cfg: base.Cfg, Session: base.Session, Seed: base.Seed + 1},
	}
	for field, c := range mutants {
		key, ok := cellStoreKey(c)
		if !ok {
			t.Fatalf("%s: no key", field)
		}
		if key == baseKey {
			t.Errorf("changing %s did not change the result store key", field)
		}
	}
	// The handshake cell has a derivable identity too, and an unknown
	// cipher has none.
	if _, ok := cellStoreKey(Cell{Kind: CellHandshake}); !ok {
		t.Error("handshake cell has no store key")
	}
	if _, ok := cellStoreKey(Cell{Kind: CellKernel, Cipher: "nonesuch", Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: 64, Seed: 1}); ok {
		t.Error("unknown cipher produced a store key")
	}
}

// TestStoreBudgetBypass pins the honesty rule: cells executed under an
// approximate CellBudget neither read from nor write to the store, so
// approximate results can never be served where exact ones are expected.
func TestStoreBudgetBypass(t *testing.T) {
	installTempStore(t)
	c := Cell{Kind: CellKernel, Cipher: "rc4", Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: 1024, Seed: DefaultSeed}

	// Populate the store with the exact result.
	if r := getCell(c, false); r.err != nil {
		t.Fatal(r.err)
	}
	if st := store.ReadStats(); st.Writes == 0 {
		t.Fatalf("exact cell was not persisted: %+v", st)
	}

	// Under a budget the same cell must not touch the store. The windows
	// are short enough that the 1 KB session is really sampled rather than
	// falling back to an exact run.
	defer SetCellBudget(SetCellBudget(&CellBudget{Mode: BudgetSampled, SampleIntervals: 2, SampleIntervalInsts: 1024, WarmupInsts: 1024}))
	ResetCache()
	before := ApproxCellCount()
	r := getCell(c, false)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if ApproxCellCount() != before+1 {
		t.Fatalf("budgeted cell was not sampled (approximate cells %d -> %d)", before, ApproxCellCount())
	}
	st := store.ReadStats()
	if st.ResultHits != 0 || st.ResultMisses != 0 || st.Writes != 0 {
		t.Fatalf("budgeted cell touched the store: %+v", st)
	}
}

// TestErroredCellsNotStored pins that failed executions are never
// persisted: an error must re-execute (and possibly resolve) on the next
// run instead of being replayed from disk.
func TestErroredCellsNotStored(t *testing.T) {
	installTempStore(t)
	c := Cell{Kind: CellKernel, Cipher: "blowfish", Feat: isa.FeatRot, Cfg: ooo.FourWide, Session: -1, Seed: DefaultSeed}
	if r := getCell(c, false); r.err == nil {
		t.Fatal("negative session did not error")
	}
	if st := store.ReadStats(); st.Writes != 0 {
		t.Fatalf("errored cell was persisted: %+v", st)
	}
}
