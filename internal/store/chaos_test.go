package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"cryptoarch/internal/check"
	"cryptoarch/internal/metrics"
)

// Chaos tests: every filesystem fault class the check.FaultFS injector can
// plant, mapped to the mechanism that must detect or absorb it. The
// contract under test is graceful degradation — no fault class may fail a
// simulation run; each is either retried past (transient), healed by the
// checksum discipline (torn write), or absorbed by flipping the store into
// its storeless no-op shell (persistent), all visible on the metrics
// registry.

// openChaos opens a store whose filesystem is wrapped in a fault injector.
// Backoff sleeps are captured instead of slept so retry tests are instant.
func openChaos(t *testing.T) (*Store, *check.FaultFS, *check.Injector) {
	t.Helper()
	Rebind(metrics.NewRegistry())
	t.Cleanup(func() { Rebind(nil) })
	in := check.NewInjector(42)
	ffs := in.NewFaultFS(OsFS())
	s, err := OpenFS(t.TempDir(), 1<<20, ffs)
	if err != nil {
		t.Fatal(err)
	}
	s.retry.sleep = func(time.Duration) {} // no real backoff waits in tests
	return s, ffs, in
}

func TestChaosReadTransientRetries(t *testing.T) {
	s, ffs, in := openChaos(t)
	payload := []byte("retry me")
	if err := s.Put(TierResult, "k1", payload); err != nil {
		t.Fatal(err)
	}
	// Two transient read failures, then the disk recovers: the retry loop
	// must absorb both and still deliver a hit.
	ffs.Plan(check.FaultFSRead, 0, 2, syscall.EIO)
	got, _, ok := s.Get(TierResult, "k1")
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get after transient read faults: ok=%v got=%q", ok, got)
	}
	st := ReadStats()
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
	if st.Degraded != 0 {
		t.Fatalf("store degraded on a transient fault: %+v", st)
	}
	if n := len(in.Injected()); n != 2 {
		t.Fatalf("injector logged %d faults, want 2", n)
	}
}

func TestChaosReadPersistentDegrades(t *testing.T) {
	s, ffs, _ := openChaos(t)
	if err := s.Put(TierResult, "k1", []byte("soon unreachable")); err != nil {
		t.Fatal(err)
	}
	// The disk never recovers: retries exhaust, the store degrades, and
	// every later operation is a cheap storeless no-op.
	ffs.Plan(check.FaultFSRead, 0, -1, syscall.EIO)
	if _, _, ok := s.Get(TierResult, "k1"); ok {
		t.Fatal("Get succeeded through a permanently failing disk")
	}
	st := ReadStats()
	if st.Degraded != 1 {
		t.Fatalf("degraded = %d, want 1 (%+v)", st.Degraded, st)
	}
	if st.Retries == 0 {
		t.Fatal("persistent transient-class fault should have burned retries first")
	}
	if deg, err := s.Degraded(); !deg || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Degraded() = %v, %v; want true, EIO", deg, err)
	}
	// Degraded shell: misses and dropped writes, no panic, no error.
	if _, _, ok := s.Get(TierResult, "k1"); ok {
		t.Fatal("degraded Get hit")
	}
	if err := s.Put(TierResult, "k2", []byte("dropped")); err != nil {
		t.Fatalf("degraded Put errored: %v", err)
	}
}

func TestChaosWriteErrorRetriesThenDegrades(t *testing.T) {
	s, ffs, _ := openChaos(t)
	ffs.Plan(check.FaultFSWrite, 0, -1, syscall.EIO)
	err := s.Put(TierResult, "k1", []byte("never lands"))
	if err == nil {
		t.Fatal("Put through a failing disk reported success")
	}
	st := ReadStats()
	if st.Retries != 3 {
		t.Fatalf("retries = %d, want 3 (4 attempts)", st.Retries)
	}
	if st.Degraded != 1 {
		t.Fatalf("degraded = %d, want 1", st.Degraded)
	}
	if st.Writes != 0 {
		t.Fatalf("writes = %d, want 0", st.Writes)
	}
}

// chaosTiers lists both tiers: every write-side fault must hit a trace
// entry the same way it hits a result entry.
var chaosTiers = []Tier{TierResult, TierTrace}

// chaosPayload returns a payload shaped like the tier's entries: a short
// result, or 64 packed 16-byte trace records. The trace payload is long
// enough that tearing the entry in half cuts inside the payload part, past
// the header part.
func chaosPayload(tier Tier) []byte {
	if tier == TierResult {
		return []byte("this payload will be torn in half by the injector")
	}
	b := make([]byte, 64*16)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

// TestChaosWriteFailureLeavesNoTempResidue is the temp-file-leak gate: a
// mid-run write or rename failure must remove its temp file immediately,
// not leave it for the next Open's crash sweep.
func TestChaosWriteFailureLeavesNoTempResidue(t *testing.T) {
	assertNoTemps := func(t *testing.T, s *Store) {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(s.Root(), "put-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 0 {
			t.Fatalf("temp residue after failed Put: %v", matches)
		}
	}
	for _, c := range []struct {
		name  string
		class check.FaultClass
	}{{"rename", check.FaultFSRename}, {"write", check.FaultFSWrite}} {
		t.Run(c.name, func(t *testing.T) {
			for _, tier := range chaosTiers {
				t.Run(tier.String(), func(t *testing.T) {
					s, ffs, _ := openChaos(t)
					ffs.Plan(c.class, 0, -1, syscall.EIO)
					if err := s.Put(tier, "k1", chaosPayload(tier)); err == nil {
						t.Fatalf("Put with failing %s reported success", c.name)
					}
					assertNoTemps(t, s)
				})
			}
		})
	}
}

func TestChaosTornWriteHealsOnLoad(t *testing.T) {
	for _, tier := range chaosTiers {
		t.Run(tier.String(), func(t *testing.T) {
			s, ffs, in := openChaos(t)
			payload := chaosPayload(tier)
			ffs.Plan(check.FaultFSTorn, 0, 1, nil)
			if err := s.Put(tier, "k1", payload); err != nil {
				t.Fatalf("torn write must report success (that is the fault): %v", err)
			}
			// The header and payload are written as two parts, but the
			// tear keeps the first half of the entry as a whole.
			entry := append([]byte(entryMagic), make([]byte, 16)...)
			binary.LittleEndian.PutUint64(entry[8:16], uint64(len(payload)))
			binary.LittleEndian.PutUint64(entry[16:24], checksum(payload))
			entry = append(entry, payload...)
			raw, err := os.ReadFile(s.EntryPath(tier, "k1"))
			if err != nil || !bytes.Equal(raw, entry[:len(entry)/2]) {
				t.Fatalf("torn entry is not the first half of header|payload (%d of %d bytes, err %v)", len(raw), len(entry), err)
			}
			// The torn entry is on disk under a live key; the next load
			// must catch it via the header/length check, delete it and
			// report a miss.
			if _, _, ok := s.Get(tier, "k1"); ok {
				t.Fatal("Get returned a torn entry")
			}
			st := ReadStats()
			if st.Corrupt != 1 {
				t.Fatalf("corrupt = %d, want 1", st.Corrupt)
			}
			if st.Degraded != 0 {
				t.Fatalf("torn write degraded the store: %+v", st)
			}
			// Re-record once: a clean Put under the same key must land and
			// hit.
			if err := s.Put(tier, "k1", payload); err != nil {
				t.Fatal(err)
			}
			if got, _, ok := s.Get(tier, "k1"); !ok || string(got) != string(payload) {
				t.Fatalf("healed entry: ok=%v got=%q", ok, got)
			}
			if got := in.Injected(); len(got) != 1 || got[0] != check.FaultFSTorn {
				t.Fatalf("injected log = %v", got)
			}
		})
	}
}

func TestChaosENOSPCDegradesWithoutRetry(t *testing.T) {
	for _, tier := range chaosTiers {
		t.Run(tier.String(), func(t *testing.T) {
			s, ffs, _ := openChaos(t)
			ffs.Plan(check.FaultFSFull, 0, -1, nil)
			err := s.Put(tier, "k1", chaosPayload(tier))
			if err == nil {
				t.Fatal("Put on a full disk reported success")
			}
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("err = %v, want ENOSPC in chain", err)
			}
			st := ReadStats()
			if st.Retries != 0 {
				t.Fatalf("retries = %d, want 0 — ENOSPC is deterministic, retrying is waste", st.Retries)
			}
			if st.Degraded != 1 {
				t.Fatalf("degraded = %d, want 1", st.Degraded)
			}
			// The degraded store must keep absorbing traffic silently.
			if err := s.Put(tier, "k2", []byte("dropped")); err != nil {
				t.Fatalf("degraded Put errored: %v", err)
			}
		})
	}
}

// TestChaosFaultClassCoverage walks every FS fault class and asserts the
// injector fired it — the same no-silently-undetectable-class discipline
// as the engine's fault-injection tests.
func TestChaosFaultClassCoverage(t *testing.T) {
	classes := []check.FaultClass{
		check.FaultFSRead, check.FaultFSWrite, check.FaultFSRename,
		check.FaultFSTorn, check.FaultFSFull,
	}
	for _, class := range classes {
		t.Run(string(class), func(t *testing.T) {
			s, ffs, in := openChaos(t)
			if class == check.FaultFSRead {
				if err := s.Put(TierResult, "k1", []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			ffs.Plan(class, 0, 1, nil)
			switch class {
			case check.FaultFSRead:
				s.Get(TierResult, "k1")
			default:
				s.Put(TierResult, "k1", []byte("probe payload"))
			}
			fired := false
			for _, got := range in.Injected() {
				if got == class {
					fired = true
				}
			}
			if !fired {
				t.Fatalf("fault class %s never fired (log %v)", class, in.Injected())
			}
		})
	}
}
