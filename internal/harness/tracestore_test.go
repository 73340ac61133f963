package harness

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
	"time"

	"cryptoarch/internal/check"
	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/metrics"
	"cryptoarch/internal/ooo"
	"cryptoarch/internal/store"
)

// installTempStore opens a fresh store in a temp directory, installs it
// process-wide, and restores the previous store (and a clean trace cache)
// when the test ends.
func installTempStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	ResetTraceCache()
	prev := SetStore(s)
	t.Cleanup(func() {
		SetStore(prev)
		ResetTraceCache()
	})
	return s
}

// TestStorePayloadChecksumIsTraceChecksum pins one trace payload format
// reached by two code paths. The expected payload is built record by
// record with emu.EncodeTraceRec, the format's definition; encodeRecs (an
// in-place view where the host layout allows) must return exactly those
// bytes and decodeRecs must invert them. The entry file saveTraceToStore
// writes must be exactly magic | length | check.NewSum64 of the encoding |
// encoding: the schema-2 layout, byte for byte. Record counts cover the
// empty and one-record traces and a few hundred records.
func TestStorePayloadChecksumIsTraceChecksum(t *testing.T) {
	s := installTempStore(t)
	edge := []emu.TraceRec{
		{Addr: 0xdeadbeefcafef00d, Idx: 42, Br: 1},
		{Addr: 0x0123456789abcdef, Idx: 7, Br: 0},
		{Addr: 0, Idx: 0xffffffff, Br: 0xffffffff},
		{Addr: 1, Idx: 1, Br: 1},
	}
	for _, n := range []int{0, 1, len(edge), 255, 256, 257, 513} {
		recs := make([]emu.TraceRec, n)
		want := make([]byte, n*emu.TraceRecBytes)
		for i := range recs {
			recs[i] = edge[i%len(edge)]
			recs[i].Addr ^= uint64(i) * 0x9e3779b97f4a7c15
			recs[i].Idx += uint32(i)
			emu.EncodeTraceRec(want[i*emu.TraceRecBytes:], &recs[i])
		}
		payload := encodeRecs(recs)
		if !bytes.Equal(payload, want) {
			t.Fatalf("n=%d: encodeRecs differs from the EncodeTraceRec encoding", n)
		}
		back, ok := decodeRecs(payload)
		if !ok || len(back) != n {
			t.Fatalf("n=%d: decodeRecs failed on its own encoding", n)
		}
		for i := range recs {
			if back[i] != recs[i] {
				t.Fatalf("n=%d: rec %d round-tripped as %+v, want %+v", n, i, back[i], recs[i])
			}
		}
		if n > 0 {
			if _, ok := decodeRecs(payload[:len(payload)-1]); ok {
				t.Fatalf("n=%d: decodeRecs accepted a torn payload", n)
			}
		}

		k := traceKey{cipher: "blowfish", feat: isa.FeatRot, session: n, seed: 1, mode: modeEncrypt}
		saveTraceToStore(k, &emu.Trace{Recs: recs})
		key, err := storeKeyFor(k)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(s.EntryPath(store.TierTrace, key))
		if err != nil {
			t.Fatalf("n=%d: trace entry was not written: %v", n, err)
		}
		h := check.NewSum64()
		h.Write(want)
		entry := binary.LittleEndian.AppendUint64([]byte("simstor2"), uint64(len(want)))
		entry = binary.LittleEndian.AppendUint64(entry, h.Sum64())
		entry = append(entry, want...)
		if !bytes.Equal(raw, entry) {
			t.Fatalf("n=%d: trace entry file is not magic | length | sum | encoding (%d bytes, want %d)", n, len(raw), len(entry))
		}
	}
}

// TestStoreWarmBitIdentical is the trace-tier equivalence gate: a run that
// faults its trace in from the persistent store must produce bit-identical
// simulation statistics to the run that recorded it, while paying zero
// functional recordings.
func TestStoreWarmBitIdentical(t *testing.T) {
	installTempStore(t)
	const session, seed = 2048, 7

	cold, err := TimeKernel("blowfish", isa.FeatRot, ooo.FourWide, session, seed)
	if err != nil {
		t.Fatal(err)
	}
	cst := store.ReadStats()
	if cst.TraceMisses == 0 || cst.Writes == 0 {
		t.Fatalf("cold run did not miss and persist: %+v", cst)
	}

	// Drop the in-memory cache; the disk entry survives.
	ResetTraceCache()
	warm, err := TimeKernel("blowfish", isa.FeatRot, ooo.FourWide, session, seed)
	if err != nil {
		t.Fatal(err)
	}
	if *warm != *cold {
		t.Fatalf("store-warm stats diverge from cold:\ncold %+v\nwarm %+v", cold, warm)
	}
	if st := ReadTraceCacheStats(); st.Records != 0 {
		t.Fatalf("warm run paid %d functional recordings, want 0 (stats %+v)", st.Records, st)
	}
	wst := store.ReadStats()
	if wst.TraceHits == 0 || wst.TraceMisses != 0 {
		t.Fatalf("warm run did not hit the store: %+v", wst)
	}
}

// TestStoreKeyInvalidation pins that every identity field of the trace key
// reaches the store key: the store must provably miss when any of them
// changes.
func TestStoreKeyInvalidation(t *testing.T) {
	base := traceKey{cipher: "blowfish", feat: isa.FeatRot, session: 512, seed: 7, mode: modeEncrypt}
	baseKey, err := storeKeyFor(base)
	if err != nil {
		t.Fatal(err)
	}
	mutants := map[string]traceKey{
		"cipher":  {cipher: "rc4", feat: base.feat, session: base.session, seed: base.seed, mode: base.mode},
		"feat":    {cipher: base.cipher, feat: isa.FeatNoRot, session: base.session, seed: base.seed, mode: base.mode},
		"session": {cipher: base.cipher, feat: base.feat, session: 1024, seed: base.seed, mode: base.mode},
		"seed":    {cipher: base.cipher, feat: base.feat, session: base.session, seed: 8, mode: base.mode},
		"mode":    {cipher: base.cipher, feat: base.feat, session: base.session, seed: base.seed, mode: modeDecrypt},
	}
	for field, k := range mutants {
		got, err := storeKeyFor(k)
		if err != nil {
			t.Fatalf("%s: %v", field, err)
		}
		if got == baseKey {
			t.Errorf("changing %s did not change the store key", field)
		}
	}
	// Feature levels that assemble different kernel bytes must yield
	// different digests — the "kernel edit misses" guarantee. (norot and
	// rot emit byte-identical blowfish programs, which the digest rightly
	// reports; those keys stay distinct through the Feat field. The opt
	// level rewrites the sbox accesses, so the bytes — and digest —
	// change.)
	dRot, err1 := KernelDigest("blowfish", isa.FeatRot, "encrypt")
	dOpt, err2 := KernelDigest("blowfish", isa.FeatOpt, "encrypt")
	dSetup, err3 := KernelDigest("blowfish", isa.FeatRot, "setup")
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	if dRot == dOpt {
		t.Error("rot and opt kernels share a program digest")
	}
	if dRot == dSetup {
		t.Error("encrypt and setup kernels share a program digest")
	}
	if _, err := KernelDigest("blowfish", isa.FeatRot, "compress"); err == nil {
		t.Error("unknown kernel kind did not error")
	}
}

// TestStoreCorruptionReRecord drives the corruption protocol end to end
// through the harness: a bit-flipped on-disk entry is detected at fault-in,
// deleted, counted, re-recorded live once, and the healed entry serves the
// next warm run from disk.
func TestStoreCorruptionReRecord(t *testing.T) {
	s := installTempStore(t)
	k := traceKey{cipher: "blowfish", feat: isa.FeatRot, session: 512, seed: 21, mode: modeEncrypt}
	if _, _, err := traces.stream(k); err != nil {
		t.Fatal(err)
	}
	key, err := storeKeyFor(k)
	if err != nil {
		t.Fatal(err)
	}
	path := s.EntryPath(store.TierTrace, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace was not persisted: %v", err)
	}
	raw[len(raw)-5] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	ResetTraceCache()
	if _, _, err := traces.stream(k); err != nil {
		t.Fatalf("stream over a corrupt store entry: %v", err)
	}
	st := store.ReadStats()
	if st.Corrupt != 1 {
		t.Fatalf("store stats %+v: want exactly 1 corrupt entry", st)
	}
	if st.TraceHits != 0 || st.TraceMisses != 1 {
		t.Fatalf("store stats %+v: corrupt load must count as a miss", st)
	}
	if cs := ReadTraceCacheStats(); cs.Records != 1 {
		t.Fatalf("cache stats %+v: want exactly one live re-record", cs)
	}
	if st.Writes != 1 {
		t.Fatalf("store stats %+v: re-record did not persist once", st)
	}

	// The healed entry now serves a warm run from disk.
	ResetTraceCache()
	if _, _, err := traces.stream(k); err != nil {
		t.Fatal(err)
	}
	if st := store.ReadStats(); st.TraceHits != 1 || st.Corrupt != 0 {
		t.Fatalf("store stats %+v: healed entry did not hit cleanly", st)
	}
	if cs := ReadTraceCacheStats(); cs.Records != 0 {
		t.Fatalf("cache stats %+v: healed warm run paid a recording", cs)
	}
}

// TestStoreLoadSpanCoversRead pins what a "storeload" span times: the
// whole fault-in of a trace from the store, the disk read and sum check
// included. Four warm 4 KB traces are faulted in under a timeline, and
// their storeload spans must add up to at least the store's own load
// clock (store.load_ns), which times only the read and the sum check.
func TestStoreLoadSpanCoversRead(t *testing.T) {
	installTempStore(t)
	ciphers := []string{"blowfish", "3des", "rijndael", "twofish"}
	stream := func() {
		t.Helper()
		for _, c := range ciphers {
			if _, _, err := StreamKernel(c, isa.FeatRot, 4096, 12345); err != nil {
				t.Fatal(err)
			}
		}
	}
	stream()
	ResetTraceCache() // the entries stay on disk; the counters restart
	tl := metrics.NewTimeline()
	defer SetTimeline(SetTimeline(tl))
	stream()

	st := store.ReadStats()
	if st.TraceHits != len(ciphers) || st.TraceMisses != 0 {
		t.Fatalf("store stats %+v: want %d trace hits and no misses", st, len(ciphers))
	}
	var spans time.Duration
	n := 0
	for _, sp := range tl.Spans() {
		if sp.Cat == "storeload" {
			spans += sp.End - sp.Start
			n++
		}
	}
	if n != len(ciphers) {
		t.Fatalf("%d storeload spans, want %d", n, len(ciphers))
	}
	if spans < st.LoadTime {
		t.Fatalf("storeload spans total %v, less than the store's load time %v", spans, st.LoadTime)
	}
}
