// Package ooo is the cycle-level out-of-order timing model — the analogue
// of SimpleScalar's sim-outorder used by the paper. It consumes the
// committed-path dynamic instruction stream produced by the functional
// emulator and models: block fetch with a bimodal predictor and
// return-address stack, dispatch into a reorder buffer with implicit
// renaming, oldest-first issue across functional-unit pools, a load/store
// queue with configurable alias policy, a two-level cache hierarchy with
// next-line prefetch and a TLB, and the paper's SBox caches.
//
// A zero value for any capacity parameter means "infinite", which is how
// the dataflow (DF) model and the Figure 5 single-bottleneck experiments
// are expressed. Machines with unbounded issue, functional units, fetch
// and LSQ and perfect memory (DF, DF+Alias, DF+Branch, DF+Window) are
// timed by an equivalent one-pass recurrence in program order
// (progorder.go) instead of cycle by cycle, unless a run observes the
// pipeline.
package ooo

import (
	"fmt"
	"strings"
)

// Config describes one machine model (the paper's Table 2 plus the
// bottleneck-analysis knobs of Figure 5).
type Config struct {
	Name string

	// Front end.
	FetchBlocksPerCycle int // taken branches terminate a block; 0 = inf
	FetchWidth          int // instructions per block; 0 = inf
	BranchPenalty       int // minimum misprediction penalty in cycles
	PerfectBpred        bool

	// Window.
	WindowSize int // ROB entries; 0 = inf
	IssueWidth int // also dispatch and commit width; 0 = inf
	LSQSize    int // in-flight memory operations; 0 = inf

	// Functional units (0 = inf).
	NumIALU  int
	MulLanes int // 32-bit multiplier lanes; a 64-bit multiply takes two
	NumRot   int // rotator/XBOX units

	// Memory system.
	DCachePorts  int  // 0 = inf
	PerfectMem   bool // every access is an L1 hit and the TLB never misses
	PerfectAlias bool // loads wait only for overlapping earlier stores

	// SBox caches (the 4W+ / 8W+ feature).
	NumSboxCaches  int // tables beyond this use D-cache ports
	SboxCachePorts int // ports per SBox cache

	// Checked enables per-cycle invariant validation (see invariants.go):
	// the engine verifies reorder-buffer, scoreboard, calendar-queue,
	// store-ordering and slot-accounting consistency every cycle and
	// returns a structured *check.Violation from Run at the first
	// inconsistency, instead of running on over corrupted state. Off by
	// default; when off the only cost is one untaken branch per cycle.
	Checked bool

	// CycleBudget aborts Run with a *check.BudgetError once the simulated
	// cycle count reaches it (0 = no budget). Together with
	// emu.Machine.MaxInsts this is the runaway guard: a mis-built kernel
	// fails a sweep cell with a typed error instead of hanging it.
	CycleBudget uint64
}

func (c Config) String() string { return c.Name }

// inf reports whether a capacity is unlimited.
func inf(n int) bool { return n <= 0 }

// The paper's machine models (Table 2).
var (
	// FourWide is the baseline: roughly an Alpha 21264.
	FourWide = Config{
		Name:                "4W",
		FetchBlocksPerCycle: 1,
		FetchWidth:          4,
		BranchPenalty:       8,
		WindowSize:          128,
		IssueWidth:          4,
		LSQSize:             64,
		NumIALU:             4,
		MulLanes:            2,
		NumRot:              2,
		DCachePorts:         2,
	}

	// FourWidePlus adds four single-ported SBox caches and two more
	// rotator/XBOX units.
	FourWidePlus = Config{
		Name:                "4W+",
		FetchBlocksPerCycle: 1,
		FetchWidth:          4,
		BranchPenalty:       8,
		WindowSize:          128,
		IssueWidth:          4,
		LSQSize:             64,
		NumIALU:             4,
		MulLanes:            2,
		NumRot:              4,
		DCachePorts:         2,
		NumSboxCaches:       4,
		SboxCachePorts:      1,
	}

	// EightWidePlus doubles execution bandwidth.
	EightWidePlus = Config{
		Name:                "8W+",
		FetchBlocksPerCycle: 2,
		FetchWidth:          4,
		BranchPenalty:       8,
		WindowSize:          256,
		IssueWidth:          8,
		LSQSize:             128,
		NumIALU:             8,
		MulLanes:            4,
		NumRot:              8,
		DCachePorts:         4,
		NumSboxCaches:       4,
		SboxCachePorts:      2,
	}

	// Dataflow is the upper-bound machine: infinite everything, perfect
	// prediction, perfect memory, perfect alias detection. SBox accesses
	// get the dedicated-cache latency (every table has a cache with
	// unlimited ports).
	Dataflow = Config{
		Name:          "DF",
		PerfectBpred:  true,
		PerfectMem:    true,
		PerfectAlias:  true,
		NumSboxCaches: 16,
	}
)

// Figure 5 re-inserts one bottleneck at a time into the dataflow machine.
// Bottleneck names follow the paper's bars.
func BottleneckConfig(name string) (Config, error) {
	c := Dataflow
	switch name {
	case "Alias":
		c.PerfectAlias = false
	case "Branch":
		c.PerfectBpred = false
		c.BranchPenalty = FourWide.BranchPenalty
	case "Issue":
		c.IssueWidth = FourWide.IssueWidth
	case "Mem":
		c.PerfectMem = false
	case "Res":
		c.NumIALU = FourWide.NumIALU
		c.MulLanes = FourWide.MulLanes
		c.NumRot = FourWide.NumRot
		c.DCachePorts = FourWide.DCachePorts
	case "Window":
		c.WindowSize = FourWide.WindowSize
	case "All":
		return FourWide, nil
	default:
		return Config{}, fmt.Errorf("ooo: unknown bottleneck %q", name)
	}
	c.Name = "DF+" + name
	return c, nil
}

// Bottlenecks lists the Figure 5 bars in presentation order.
var Bottlenecks = []string{"Alias", "Branch", "Issue", "Mem", "Res", "Window", "All"}

// Models lists the paper's named machine models.
var Models = []Config{FourWide, FourWidePlus, EightWidePlus, Dataflow}

// ModelByName resolves a machine-model name, ignoring case: 4W, 4W+, 8W+,
// DF, or a Figure 5 single-bottleneck machine written DF+<name> (e.g.
// DF+Issue, or df+issue).
func ModelByName(name string) (Config, error) {
	for _, m := range Models {
		if strings.EqualFold(m.Name, name) {
			return m, nil
		}
	}
	if len(name) > 3 && strings.EqualFold(name[:3], "DF+") {
		bn := name[3:]
		for _, b := range Bottlenecks {
			if strings.EqualFold(b, bn) {
				bn = b
				break
			}
		}
		return BottleneckConfig(bn)
	}
	return Config{}, fmt.Errorf("ooo: unknown machine model %q (want 4W, 4W+, 8W+, DF or DF+<bottleneck>)", name)
}
