package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/metrics"
)

// withCounters installs a live scratch registry for the duration of a test
// so the store counters can be asserted, restoring the disabled default.
func withCounters(t *testing.T) {
	t.Helper()
	Rebind(metrics.NewRegistry())
	t.Cleanup(func() { Rebind(nil) })
}

func openTemp(t *testing.T, budget int64) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	withCounters(t)
	s := openTemp(t, 1<<20)
	payload := []byte("the quick brown fox jumps over the lazy dog")
	if err := s.Put(TierTrace, "aaaa", payload); err != nil {
		t.Fatal(err)
	}
	got, sum, ok := s.Get(TierTrace, "aaaa")
	if !ok {
		t.Fatal("Get missed a just-Put entry")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mangled: %q", got)
	}
	if sum != checksum(payload) {
		t.Fatalf("sum %#x, want %#x", sum, checksum(payload))
	}
	// The tiers are separate namespaces.
	if _, _, ok := s.Get(TierResult, "aaaa"); ok {
		t.Fatal("result tier returned a trace-tier entry")
	}
	st := ReadStats()
	if st.TraceHits != 1 || st.ResultMisses != 1 || st.Writes != 1 {
		t.Fatalf("stats %+v: want 1 trace hit, 1 result miss, 1 write", st)
	}
}

func TestGetMissOnAbsent(t *testing.T) {
	withCounters(t)
	s := openTemp(t, 1<<20)
	if _, _, ok := s.Get(TierTrace, "nope"); ok {
		t.Fatal("Get hit an absent key")
	}
	if st := ReadStats(); st.TraceMisses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v: want exactly 1 clean trace miss", st)
	}
}

func TestNilStoreIsDisabled(t *testing.T) {
	var s *Store
	if _, _, ok := s.Get(TierTrace, "k"); ok {
		t.Fatal("nil store hit")
	}
	if err := s.Put(TierTrace, "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if s.Root() != "" || s.Len() != 0 || s.BytesUsed() != 0 {
		t.Fatal("nil store reported state")
	}
}

// TestCorruptionBitFlip pins the corruption protocol: a bit-flipped entry
// is detected by the checksum, deleted, counted, and reported as a miss;
// the caller's re-record (one Put) fully heals it.
func TestCorruptionBitFlip(t *testing.T) {
	withCounters(t)
	s := openTemp(t, 1<<20)
	payload := []byte("some result bytes worth protecting")
	if err := s.Put(TierResult, "bbbb", payload); err != nil {
		t.Fatal(err)
	}
	path := s.EntryPath(TierResult, "bbbb")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerBytes+3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get(TierResult, "bbbb"); ok {
		t.Fatal("Get returned a corrupted entry")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupted entry not deleted from disk")
	}
	st := ReadStats()
	if st.Corrupt != 1 || st.ResultMisses != 1 {
		t.Fatalf("stats %+v: want corrupt=1 and the corrupt read counted as a miss", st)
	}
	// Re-record once: the next Put+Get cycle is clean.
	if err := s.Put(TierResult, "bbbb", payload); err != nil {
		t.Fatal(err)
	}
	if got, _, ok := s.Get(TierResult, "bbbb"); !ok || string(got) != string(payload) {
		t.Fatal("re-recorded entry did not read back")
	}
	if st := ReadStats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter moved on the healed entry: %+v", st)
	}
}

// TestCorruptionTruncate covers the torn-write/truncation shapes: shorter
// than the header, and header intact but payload cut.
func TestCorruptionTruncate(t *testing.T) {
	withCounters(t)
	s := openTemp(t, 1<<20)
	payload := []byte("0123456789abcdef0123456789abcdef")
	for i, cut := range []int{headerBytes - 8, headerBytes + len(payload)/2} {
		key := string(rune('a'+i)) + "trunc"
		if err := s.Put(TierTrace, key, payload); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(s.EntryPath(TierTrace, key), int64(cut)); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := s.Get(TierTrace, key); ok {
			t.Fatalf("cut=%d: Get returned a truncated entry", cut)
		}
	}
	if st := ReadStats(); st.Corrupt != 2 {
		t.Fatalf("stats %+v: want 2 corrupt entries", st)
	}
}

// TestCorruptionOldFormatEntry pins the schema-2 header change: an entry
// in the schema-1 layout (magic "simstor1", FNV-1a payload sum), found
// under a current manifest, is deleted as corrupt and reported as a miss
// by Get — never served.
func TestCorruptionOldFormatEntry(t *testing.T) {
	withCounters(t)
	dir := t.TempDir()
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("a trace payload written before the CRC sum")
	// The schema-1 payload sum, 64-bit FNV-1a, spelled out here because
	// hash/fnv now serves only identity keys.
	fnv := uint64(14695981039346656037)
	for _, c := range payload {
		fnv = (fnv ^ uint64(c)) * 1099511628211
	}
	raw := make([]byte, headerBytes+len(payload))
	copy(raw, "simstor1")
	binary.LittleEndian.PutUint64(raw[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint64(raw[16:24], fnv)
	copy(raw[headerBytes:], payload)
	path := s.EntryPath(TierTrace, "oldfmt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatalf("current manifest refused: %v", err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store indexed %d entries, want the old-format one", s2.Len())
	}
	if got, _, ok := s2.Get(TierTrace, "oldfmt"); ok {
		t.Fatalf("Get served a schema-1 entry: %q", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("schema-1 entry not deleted from disk")
	}
	if st := ReadStats(); st.Corrupt != 1 || st.TraceMisses != 1 || st.TraceHits != 0 {
		t.Fatalf("stats %+v: want the schema-1 entry counted as corrupt and as a miss", st)
	}
	if s2.Len() != 0 || s2.BytesUsed() != 0 {
		t.Fatalf("dropped entry still indexed: %d entries, %d bytes", s2.Len(), s2.BytesUsed())
	}
}

// TestEviction pins the LRU byte budget: the least-recently-used entry is
// deleted (memory and disk) when a Put overflows the budget, and a
// Get refreshes recency.
func TestEviction(t *testing.T) {
	withCounters(t)
	// Budget fits two entries of 100 payload bytes (+24 header) but not
	// three.
	s := openTemp(t, 2*(100+headerBytes)+10)
	pay := make([]byte, 100)
	for _, k := range []string{"k1", "k2"} {
		if err := s.Put(TierTrace, k, pay); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k1 so k2 becomes the LRU victim.
	if _, _, ok := s.Get(TierTrace, "k1"); !ok {
		t.Fatal("k1 missing before eviction")
	}
	if err := s.Put(TierTrace, "k3", pay); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get(TierTrace, "k2"); ok {
		t.Fatal("LRU entry k2 survived an over-budget Put")
	}
	if _, _, ok := s.Get(TierTrace, "k1"); !ok {
		t.Fatal("recently-used k1 was evicted")
	}
	if _, _, ok := s.Get(TierTrace, "k3"); !ok {
		t.Fatal("just-written k3 was evicted")
	}
	if st := ReadStats(); st.Evictions != 1 {
		t.Fatalf("stats %+v: want exactly 1 eviction", st)
	}
	if s.Len() != 2 {
		t.Fatalf("store holds %d entries, want 2", s.Len())
	}
	// Entries that alone exceed the budget are not stored at all.
	if err := s.Put(TierTrace, "huge", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get(TierTrace, "huge"); ok {
		t.Fatal("over-budget payload was stored")
	}
}

// TestReopenPersists pins persistence across handles (the process-restart
// story): a second Open indexes what the first wrote.
func TestReopenPersists(t *testing.T) {
	withCounters(t)
	dir := t.TempDir()
	s1, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(TierResult, "persist", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, ok := s2.Get(TierResult, "persist"); !ok || string(got) != "payload" {
		t.Fatal("reopened store missed an entry the first handle wrote")
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store indexed %d entries, want 1", s2.Len())
	}
}

// TestStaleManifest pins ErrStale on both stale shapes: a manifest naming
// another schema (the previous one, 1, or a future one), and a populated
// directory with no manifest at all. An empty no-manifest directory is a
// fresh store, not an error.
func TestStaleManifest(t *testing.T) {
	for _, m := range []string{`{"schema_version":1}`, `{"schema_version":99}`} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(m), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, 1<<20); !errors.Is(err, ErrStale) {
			t.Fatalf("manifest %s: got %v, want ErrStale", m, err)
		}
	}

	dir2 := t.TempDir()
	s, err := Open(dir2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(TierTrace, "x", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir2, manifestFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir2, 1<<20); !errors.Is(err, ErrStale) {
		t.Fatalf("populated dir without manifest: got %v, want ErrStale", err)
	}

	if _, err := Open(t.TempDir(), 1<<20); err != nil {
		t.Fatalf("fresh empty dir: %v", err)
	}
}

// TestTraceKeySensitivity pins that every TraceIdentity field reaches the
// key: flipping any one field must change it.
func TestTraceKeySensitivity(t *testing.T) {
	base := TraceIdentity{
		EmuVersion: "emu-v1", Cipher: "blowfish", Feat: "rot",
		ProgDigest: "00112233aabbccdd", Session: 4096, Seed: 12345, Mode: "encrypt",
	}
	mutants := map[string]TraceIdentity{
		"EmuVersion": func(i TraceIdentity) TraceIdentity { i.EmuVersion = "emu-v2"; return i }(base),
		"Cipher":     func(i TraceIdentity) TraceIdentity { i.Cipher = "rc4"; return i }(base),
		"Feat":       func(i TraceIdentity) TraceIdentity { i.Feat = "opt"; return i }(base),
		"ProgDigest": func(i TraceIdentity) TraceIdentity { i.ProgDigest = "ffffffffffffffff"; return i }(base),
		"Session":    func(i TraceIdentity) TraceIdentity { i.Session = 1024; return i }(base),
		"Seed":       func(i TraceIdentity) TraceIdentity { i.Seed = 54321; return i }(base),
		"Mode":       func(i TraceIdentity) TraceIdentity { i.Mode = "decrypt"; return i }(base),
	}
	for field, m := range mutants {
		if m.Key() == base.Key() {
			t.Errorf("changing %s did not change the trace key", field)
		}
	}
	if base.Key() != base.Key() {
		t.Error("key derivation is not deterministic")
	}
	if len(base.Key()) != 16 || strings.ToLower(base.Key()) != base.Key() {
		t.Errorf("key %q is not 16 lowercase hex digits", base.Key())
	}
}

// TestResultKeySensitivity does the same for ResultIdentity — in
// particular the engine version and the config rendering, the two fields
// the invalidation story leans on hardest.
func TestResultKeySensitivity(t *testing.T) {
	base := ResultIdentity{
		EngineVersion: "ooo-v1", EmuVersion: "emu-v1", Kind: "kernel",
		Cipher: "blowfish", Feat: "rot", ProgDigest: "00112233aabbccdd",
		Session: 4096, Seed: 12345, Config: "{Name:4W IssueWidth:4}",
	}
	mutants := map[string]ResultIdentity{
		"EngineVersion": func(i ResultIdentity) ResultIdentity { i.EngineVersion = "ooo-v2"; return i }(base),
		"EmuVersion":    func(i ResultIdentity) ResultIdentity { i.EmuVersion = "emu-v2"; return i }(base),
		"Kind":          func(i ResultIdentity) ResultIdentity { i.Kind = "decrypt"; return i }(base),
		"Cipher":        func(i ResultIdentity) ResultIdentity { i.Cipher = "idea"; return i }(base),
		"Feat":          func(i ResultIdentity) ResultIdentity { i.Feat = "norot"; return i }(base),
		"ProgDigest":    func(i ResultIdentity) ResultIdentity { i.ProgDigest = "ffffffffffffffff"; return i }(base),
		"Session":       func(i ResultIdentity) ResultIdentity { i.Session = 65536; return i }(base),
		"Seed":          func(i ResultIdentity) ResultIdentity { i.Seed = 99; return i }(base),
		"Config":        func(i ResultIdentity) ResultIdentity { i.Config = "{Name:4W IssueWidth:8}"; return i }(base),
	}
	for field, m := range mutants {
		if m.Key() == base.Key() {
			t.Errorf("changing %s did not change the result key", field)
		}
	}
	// The two tiers can never collide even on identical field values.
	tr := TraceIdentity{EmuVersion: base.EmuVersion, Cipher: base.Cipher, Feat: base.Feat,
		ProgDigest: base.ProgDigest, Session: base.Session, Seed: base.Seed, Mode: base.Kind}
	if tr.Key() == base.Key() {
		t.Error("trace and result keys collided on identical fields")
	}
}

// TestProgramDigestSensitivity pins that a kernel edit — any instruction
// field or a rodata byte — changes the program digest, which is what makes
// "kernel bytes changed" provably miss.
func TestProgramDigestSensitivity(t *testing.T) {
	mk := func() *isa.Program {
		return &isa.Program{
			Name: "p",
			Code: []isa.Inst{
				{Op: 1, Ra: 2, Rb: 3, Rc: 4, Lit: 99, UseLit: true, Sel1: 1, Sel2: 2, Class: 3},
				{Op: 5, Ra: 6, Rb: 7, Rc: 8},
			},
			Rodata: []byte{0xde, 0xad, 0xbe, 0xef},
		}
	}
	base := ProgramDigest(mk())
	if ProgramDigest(mk()) != base {
		t.Fatal("digest not deterministic")
	}
	edits := map[string]func(*isa.Program){
		"Op":      func(p *isa.Program) { p.Code[0].Op++ },
		"Ra":      func(p *isa.Program) { p.Code[0].Ra++ },
		"Rb":      func(p *isa.Program) { p.Code[0].Rb++ },
		"Rc":      func(p *isa.Program) { p.Code[0].Rc++ },
		"Lit":     func(p *isa.Program) { p.Code[0].Lit++ },
		"UseLit":  func(p *isa.Program) { p.Code[0].UseLit = false },
		"Aliased": func(p *isa.Program) { p.Code[1].Aliased = true },
		"Sel1":    func(p *isa.Program) { p.Code[0].Sel1++ },
		"Sel2":    func(p *isa.Program) { p.Code[0].Sel2++ },
		"Class":   func(p *isa.Program) { p.Code[0].Class++ },
		"Rodata":  func(p *isa.Program) { p.Rodata[2] ^= 1 },
		"AddInst": func(p *isa.Program) { p.Code = append(p.Code, isa.Inst{}) },
		"DropRod": func(p *isa.Program) { p.Rodata = p.Rodata[:3] },
	}
	for name, edit := range edits {
		p := mk()
		edit(p)
		if ProgramDigest(p) == base {
			t.Errorf("editing %s did not change the program digest", name)
		}
	}
	// Debug metadata is excluded deliberately.
	p := mk()
	p.Name = "renamed"
	if ProgramDigest(p) != base {
		t.Error("program name changed the digest (it is debug metadata)")
	}
}
