package kernels

import (
	"math/rand"
	"testing"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/simmem"
)

// TestRunHoldsOnlyWrittenPages runs a 4 KB session of every kernel and
// checks that its ~3 MB arena (754 pages) holds only the pages the run
// writes: context, literals, input and output, 3-5 pages in all.
func TestRunHoldsOnlyWrittenPages(t *testing.T) {
	const session, maxPages = 4096, 16
	for _, name := range Names() {
		k, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		key := make([]byte, k.KeyBytes)
		rng.Read(key)
		var iv []byte
		if k.BlockBytes > 1 {
			iv = make([]byte, k.BlockBytes)
			rng.Read(iv)
		}
		pt := make([]byte, session)
		rng.Read(pt)
		m, mem, err := NewRun(k, isa.FeatRot, key, iv, pt)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(nil)
		if err := m.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pages := mem.Resident() / simmem.PageSize; pages > maxPages {
			t.Errorf("%s: a %d-byte session holds %d pages of its %d-page arena, want at most %d",
				name, session, pages, mem.Size()/simmem.PageSize, maxPages)
		}
	}
}
