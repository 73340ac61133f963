package ooo

import (
	"runtime"
	"testing"
	"time"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/simmem"
)

// runProg assembles, emulates and times a small program on cfg.
func runProg(t *testing.T, cfg Config, build func(b *isa.Builder)) *Stats {
	t.Helper()
	b := isa.NewBuilder("t", isa.FeatOpt)
	build(b)
	b.HALT()
	m := emu.New(b.Build(), simmem.New(1<<18), 0x80000)
	e := NewEngine(cfg, &MachineStream{M: m})
	e.WarmCode(4096)
	e.WarmData(simmem.Base, 1<<16)
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSerialChainLatency(t *testing.T) {
	// A serial chain of N 1-cycle ops must take ~N cycles even on the
	// dataflow machine: latency is not parallelism.
	const n = 200
	st := runProg(t, Dataflow, func(b *isa.Builder) {
		for i := 0; i < n; i++ {
			b.ADDQI(isa.R1, 1, isa.R1)
		}
	})
	if st.Cycles < n {
		t.Fatalf("serial chain finished in %d cycles (< %d)", st.Cycles, n)
	}
	if st.Cycles > n+40 {
		t.Fatalf("serial chain took %d cycles (overhead too high)", st.Cycles)
	}
}

func TestIndependentOpsParallelize(t *testing.T) {
	// N independent ops on DF take ~constant time.
	const n = 400
	st := runProg(t, Dataflow, func(b *isa.Builder) {
		for i := 0; i < n; i++ {
			b.ADDQI(isa.RZ, 1, isa.Reg(1+i%20))
		}
	})
	if st.Cycles > 64 {
		t.Fatalf("independent ops took %d cycles on the dataflow machine", st.Cycles)
	}
}

func TestIssueWidthBinds(t *testing.T) {
	// With issue width 1 and independent work, cycles >= instructions.
	cfg := Dataflow
	cfg.IssueWidth = 1
	const n = 300
	st := runProg(t, cfg, func(b *isa.Builder) {
		for i := 0; i < n; i++ {
			b.ADDQI(isa.RZ, 1, isa.Reg(1+i%20))
		}
	})
	if st.Cycles < n {
		t.Fatalf("issue width 1 violated: %d cycles for %d instructions", st.Cycles, n)
	}
}

func TestMultiplierLatency(t *testing.T) {
	// A chain of K dependent 64-bit multiplies costs ~7K cycles.
	const k = 50
	st := runProg(t, Dataflow, func(b *isa.Builder) {
		b.LDA(isa.R1, 3, isa.RZ)
		for i := 0; i < k; i++ {
			b.MULQ(isa.R1, isa.R1, isa.R1)
		}
	})
	if st.Cycles < 7*k {
		t.Fatalf("multiply chain too fast: %d cycles", st.Cycles)
	}
}

func TestMulmodFasterThanMul64Chain(t *testing.T) {
	chain := func(op func(b *isa.Builder)) uint64 {
		return runProg(t, Dataflow, func(b *isa.Builder) {
			b.LDA(isa.R1, 3, isa.RZ)
			op(b)
		}).Cycles
	}
	mm := chain(func(b *isa.Builder) {
		for i := 0; i < 50; i++ {
			b.MULMODR(isa.R1, isa.R1, isa.R1)
		}
	})
	mq := chain(func(b *isa.Builder) {
		for i := 0; i < 50; i++ {
			b.MULQ(isa.R1, isa.R1, isa.R1)
		}
	})
	if mm >= mq {
		t.Fatalf("MULMOD chain (%d) not faster than MULQ chain (%d)", mm, mq)
	}
}

func TestMispredictPenaltyCharged(t *testing.T) {
	// A data-dependent unpredictable branch pattern must cost far more
	// than a well-predicted loop of the same instruction count.
	mk := func(pattern bool) uint64 {
		st := runProg(t, FourWide, func(b *isa.Builder) {
			// r1 alternates 0/1 when pattern (alternating taken), or
			// stays 0 (never taken).
			b.MOV(isa.RZ, isa.R1)
			b.LoadImm(isa.R2, 400)
			b.Label("loop")
			if pattern {
				b.XORI(isa.R1, 1, isa.R1)
			} else {
				b.MOV(isa.RZ, isa.R1)
			}
			b.BEQ(isa.R1, "skip")
			b.NOP()
			b.Label("skip")
			b.SUBQI(isa.R2, 1, isa.R2)
			b.BGT(isa.R2, "loop")
		})
		return st.Cycles
	}
	alternating := mk(true)
	steady := mk(false)
	if alternating <= steady {
		t.Fatalf("alternating branch (%d cycles) not slower than steady (%d)", alternating, steady)
	}
}

func TestLSQLimitBinds(t *testing.T) {
	// Many independent loads: shrinking the LSQ must not speed things up.
	prog := func(b *isa.Builder) {
		b.LoadImm(isa.R2, int64(simmem.Base))
		for i := 0; i < 200; i++ {
			b.LDQ(isa.Reg(3+i%16), int64(8*(i%32)), isa.R2)
		}
	}
	small := Dataflow
	small.LSQSize = 2
	big := Dataflow
	stSmall := runProg(t, small, prog)
	stBig := runProg(t, big, prog)
	if stSmall.Cycles < stBig.Cycles {
		t.Fatalf("LSQ=2 (%d cycles) faster than unlimited (%d)", stSmall.Cycles, stBig.Cycles)
	}
}

func TestAliasedSboxOrdersAfterStores(t *testing.T) {
	// An aliased SBOX reading a slot just stored must see ordering costs
	// under the conservative policy but not with perfect aliasing.
	prog := func(b *isa.Builder) {
		base := int64(simmem.Base + 1024)
		b.LoadImm(isa.R1, base)
		b.LDA(isa.R2, 1, isa.RZ)
		for i := 0; i < 100; i++ {
			b.STL(isa.R2, int64(4*(i%256)), isa.R1)
			b.SBOX(0, 0, isa.R1, isa.R3, isa.R4, true)
			b.ADDQI(isa.R3, 3, isa.R3)
			b.ZEXTB(isa.R3, isa.R3)
		}
	}
	conservative := Dataflow
	conservative.PerfectAlias = false
	stC := runProg(t, conservative, prog)
	stP := runProg(t, Dataflow, prog)
	if stC.Cycles < stP.Cycles {
		t.Fatalf("conservative aliasing (%d) faster than perfect (%d)", stC.Cycles, stP.Cycles)
	}
}

// TestRunReleasesEngine pins that a run's result does not keep its engine
// reachable: callers cache *Stats for whole sweeps, and an engine holds
// the memory model, alias slabs, queues and its stream — for a replay,
// the trace's full record slab.
func TestRunReleasesEngine(t *testing.T) {
	collected := make(chan struct{})
	st := func() *Stats {
		b := isa.NewBuilder("t", isa.FeatOpt)
		for i := 0; i < 64; i++ {
			b.ADDQI(isa.R1, 1, isa.R1)
		}
		b.HALT()
		m := emu.New(b.Build(), simmem.New(1<<18), 0x80000)
		e := NewEngine(FourWide, &MachineStream{M: m})
		runtime.SetFinalizer(e, func(*Engine) { close(collected) })
		st, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			if st.Instructions != 65 {
				t.Fatalf("returned stats report %d instructions, want 65", st.Instructions)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(st)
	t.Fatal("engine still reachable after 20 collections with only its *Stats held")
}
