package harness

import (
	"testing"
	"time"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/ooo"
)

func TestWorkloadDeterminism(t *testing.T) {
	a, err := NewWorkload("twofish", 256, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewWorkload("twofish", 256, 42)
	if string(a.Key) != string(b.Key) || string(a.Plain) != string(b.Plain) {
		t.Fatal("same seed must give the same workload")
	}
	c, _ := NewWorkload("twofish", 256, 43)
	if string(a.Key) == string(c.Key) {
		t.Fatal("different seeds must differ")
	}
}

func TestTimeKernelReproducible(t *testing.T) {
	x, err := TimeKernel("idea", isa.FeatOpt, ooo.FourWide, 512, 7)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := TimeKernel("idea", isa.FeatOpt, ooo.FourWide, 512, 7)
	if x.Cycles != y.Cycles || x.Instructions != y.Instructions {
		t.Fatalf("non-deterministic simulation: %v vs %v", x.Cycles, y.Cycles)
	}
}

func TestCountMatchesTimedInstructions(t *testing.T) {
	n, err := CountKernel("rc6", isa.FeatRot, 512, 7)
	if err != nil {
		t.Fatal(err)
	}
	st, err := TimeKernel("rc6", isa.FeatRot, ooo.FourWide, 512, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != n {
		t.Fatalf("timed committed %d, emulator ran %d", st.Instructions, n)
	}
}

func TestVariantInstructionOrdering(t *testing.T) {
	// The extensions only remove instructions: dynamic counts must obey
	// opt <= rot <= norot for every cipher.
	for _, cipher := range []string{"3des", "blowfish", "idea", "mars", "rc4", "rc6", "rijndael", "twofish"} {
		var n [3]uint64
		for i, feat := range []isa.Feature{isa.FeatOpt, isa.FeatRot, isa.FeatNoRot} {
			c, err := CountKernel(cipher, feat, 256, 5)
			if err != nil {
				t.Fatal(err)
			}
			n[i] = c
		}
		if !(n[0] <= n[1] && n[1] <= n[2]) {
			t.Errorf("%s: dynamic counts opt=%d rot=%d norot=%d not monotone", cipher, n[0], n[1], n[2])
		}
	}
}

func TestSetupTimed(t *testing.T) {
	st, err := TimeSetup("blowfish", isa.FeatRot, ooo.FourWide, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Blowfish setup runs the cipher 521 times; it must dwarf other
	// ciphers' setup (Figure 6's outlier).
	aes, err := TimeSetup("rijndael", isa.FeatRot, ooo.FourWide, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles < 20*aes.Cycles {
		t.Fatalf("blowfish setup (%d) should dwarf rijndael setup (%d)", st.Cycles, aes.Cycles)
	}
}

func TestUnknownCipher(t *testing.T) {
	if _, err := NewWorkload("des56", 64, 1); err == nil {
		t.Fatal("unknown cipher accepted")
	}
	if _, err := TimeKernel("nope", isa.FeatRot, ooo.FourWide, 64, 1); err == nil {
		t.Fatal("unknown cipher accepted by TimeKernel")
	}
}

// TestWorkerBudget pins the shared-pool semantics: a resize is observed by
// WorkerBudget, each acquire takes one token, an acquire on a full pool
// blocks, and a later resize or release hands the waiter a token.
func TestWorkerBudget(t *testing.T) {
	prev := SetWorkerBudget(3)
	defer SetWorkerBudget(prev)
	if WorkerBudget() != 3 {
		t.Fatalf("budget %d, want 3", WorkerBudget())
	}
	for i := 0; i < 3; i++ {
		AcquireWorker()
	}
	acquired := make(chan struct{})
	go func() {
		AcquireWorker()
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("acquire on a full pool did not block")
	case <-time.After(20 * time.Millisecond):
	}
	SetWorkerBudget(4) // the grown pool has a token for the waiter
	<-acquired
	for i := 0; i < 4; i++ {
		ReleaseWorker()
	}
	ReleaseWorker() // an over-release floors at an empty pool
	for i := 0; i < 4; i++ {
		AcquireWorker()
	}
	for i := 0; i < 4; i++ {
		ReleaseWorker()
	}
}
