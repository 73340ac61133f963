package ooo_test

import (
	"testing"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
)

// runKernel times one blowfish session on a config.
func runKernel(t *testing.T, cfg ooo.Config, feat isa.Feature, bytes int) *ooo.Stats {
	t.Helper()
	k, err := kernels.Get("blowfish")
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 16)
	iv := make([]byte, 8)
	pt := make([]byte, bytes)
	for i := range pt {
		pt[i] = byte(i * 7)
	}
	m, _, err := kernels.NewRun(k, feat, key, iv, pt)
	if err != nil {
		t.Fatal(err)
	}
	eng := ooo.NewEngine(cfg, &ooo.MachineStream{M: m})
	eng.WarmData(kernels.CtxAddr, k.CtxBytes)
	eng.WarmCode(len(m.Prog.Code))
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestModelOrdering(t *testing.T) {
	// More machine must never be slower: DF <= 8W+ <= 4W+ <= 4W cycles.
	const n = 512
	cyc := map[string]uint64{}
	for _, cfg := range []ooo.Config{ooo.FourWide, ooo.FourWidePlus, ooo.EightWidePlus, ooo.Dataflow} {
		st := runKernel(t, cfg, isa.FeatOpt, n)
		cyc[cfg.Name] = st.Cycles
		if st.Cycles == 0 || st.Instructions == 0 {
			t.Fatalf("%s: empty run", cfg.Name)
		}
		t.Logf("%-4s cycles=%d insts=%d IPC=%.2f", cfg.Name, st.Cycles, st.Instructions, st.IPC())
	}
	if cyc["DF"] > cyc["8W+"] || cyc["8W+"] > cyc["4W+"] || cyc["4W+"] > cyc["4W"] {
		t.Fatalf("model ordering violated: %v", cyc)
	}
}

func TestInstructionCountInvariant(t *testing.T) {
	// The committed instruction count is a property of the program, not
	// the machine.
	a := runKernel(t, ooo.FourWide, isa.FeatRot, 256)
	b := runKernel(t, ooo.Dataflow, isa.FeatRot, 256)
	if a.Instructions != b.Instructions {
		t.Fatalf("instruction counts differ: %d vs %d", a.Instructions, b.Instructions)
	}
}

func TestIPCBound(t *testing.T) {
	st := runKernel(t, ooo.FourWide, isa.FeatOpt, 512)
	if st.IPC() > 4.0 {
		t.Fatalf("IPC %.2f exceeds issue width 4", st.IPC())
	}
	st8 := runKernel(t, ooo.EightWidePlus, isa.FeatOpt, 512)
	if st8.IPC() > 8.0 {
		t.Fatalf("IPC %.2f exceeds issue width 8", st8.IPC())
	}
}

func TestBottleneckConfigsNoSlowerThanAll(t *testing.T) {
	// Each single-bottleneck machine must lie between DF and the full
	// baseline ("All").
	df := runKernel(t, ooo.Dataflow, isa.FeatRot, 256).Cycles
	all := runKernel(t, ooo.FourWide, isa.FeatRot, 256).Cycles
	for _, name := range ooo.Bottlenecks {
		cfg, err := ooo.BottleneckConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		c := runKernel(t, cfg, isa.FeatRot, 256).Cycles
		t.Logf("%-7s cycles=%d (DF %d, All %d)", name, c, df, all)
		if c < df {
			t.Errorf("%s faster than dataflow: %d < %d", name, c, df)
		}
		if name != "All" && c > all {
			t.Errorf("%s slower than the full baseline: %d > %d", name, c, all)
		}
	}
}

func TestUnknownBottleneck(t *testing.T) {
	if _, err := ooo.BottleneckConfig("nope"); err == nil {
		t.Fatal("unknown bottleneck accepted")
	}
}

func TestBranchPredictionEffective(t *testing.T) {
	// Kernel loops must predict nearly perfectly (the paper's finding).
	st := runKernel(t, ooo.FourWide, isa.FeatOpt, 1024)
	if st.Branches == 0 {
		t.Fatal("no branches recorded")
	}
	rate := float64(st.Mispredicts) / float64(st.Branches)
	if rate > 0.05 {
		t.Fatalf("mispredict rate %.3f too high for loop code", rate)
	}
}
