package harness

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartCPUProfile pins the -cpuprofile plumbing: an empty path is a
// no-op, a real path holds a gzip-compressed pprof profile once stop
// returns, and an uncreatable path is an error rather than a silent skip.
func TestStartCPUProfile(t *testing.T) {
	stop, err := StartCPUProfile("")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err = StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile is not gzip-compressed pprof data (%d bytes)", len(b))
	}

	if _, err := StartCPUProfile(filepath.Join(t.TempDir(), "missing", "cpu.pprof")); err == nil {
		t.Fatal("profile into a missing directory did not error")
	}
}
