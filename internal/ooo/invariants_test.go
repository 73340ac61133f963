package ooo

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"cryptoarch/internal/check"
	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/simmem"
)

// Fault-injection tests for checked mode: each test warms a real engine
// mid-flight, verifies it is clean, corrupts one class of internal state
// with a deterministic injector, and asserts the owning checker names the
// fault. Together they prove no modeled fault class is silently
// undetectable.

// wantViolation asserts CheckInvariants reports a violation from the named
// checker.
func wantViolation(t *testing.T, e *Engine, checkName string) {
	t.Helper()
	err := e.CheckInvariants()
	if err == nil {
		t.Fatalf("corruption of %s state not detected", checkName)
	}
	v, ok := check.AsViolation(err)
	if !ok {
		t.Fatalf("CheckInvariants returned %T (%v), want *check.Violation", err, err)
	}
	if v.Check != checkName {
		t.Fatalf("violation from checker %q (%v), want %q", v.Check, v, checkName)
	}
}

// cleanEngine is a warmed mid-flight engine that passes CheckInvariants.
func cleanEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := newSteadyEngine(t, cfg, 20_000)
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("warmed engine fails invariants before injection: %v", err)
	}
	return e
}

// inFlight returns the in-flight entry the injector picks.
func inFlight(t *testing.T, e *Engine, in *check.Injector) *entry {
	t.Helper()
	occ := e.tailSeq - e.headSeq
	if occ == 0 {
		t.Fatal("no in-flight entries to corrupt")
	}
	s := e.headSeq + in.Uint64()%occ
	return &e.rob[s&uint64(len(e.rob)-1)]
}

func TestDetectROBEntryCorruption(t *testing.T) {
	in := check.NewInjector(1)
	t.Run("seq", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		en := inFlight(t, e, in)
		en.seq, _ = in.FlipBit64(en.seq)
		in.Note(check.FaultROBEntry)
		wantViolation(t, e, "rob-entry")
	})
	t.Run("state", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		en := inFlight(t, e, in)
		en.state = stDone + 1 + uint8(in.Intn(200))
		wantViolation(t, e, "rob-entry")
	})
	t.Run("pendingDeps", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		en := inFlight(t, e, in)
		en.pendingDeps = -1 - int8(in.Intn(100))
		wantViolation(t, e, "rob-entry")
	})
	t.Run("kind", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		en := inFlight(t, e, in)
		en.kind = fuKinds + uint8(in.Intn(50))
		wantViolation(t, e, "rob-entry")
	})
}

// findProducer locates an in-flight entry holding a non-empty consumer
// list.
func findProducer(t *testing.T, e *Engine) *entry {
	t.Helper()
	for s := e.headSeq; s < e.tailSeq; s++ {
		en := &e.rob[s&uint64(len(e.rob)-1)]
		if en.consHead != 0 {
			return en
		}
	}
	t.Fatal("no in-flight entry holds a consumer list")
	return nil
}

func TestDetectScoreboardCorruption(t *testing.T) {
	t.Run("node-index", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		en := findProducer(t, e)
		en.consHead = int32(len(e.consPool)) + 7
		wantViolation(t, e, "scoreboard")
	})
	t.Run("cycle", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		en := findProducer(t, e)
		e.consPool[en.consHead-1].next = en.consHead // self-loop
		wantViolation(t, e, "scoreboard")
	})
	t.Run("consumer-seq", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		en := findProducer(t, e)
		e.consPool[en.consHead-1].seq = en.seq // consumer older than producer
		wantViolation(t, e, "scoreboard")
	})
	t.Run("done-with-consumers", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		en := findProducer(t, e)
		en.state = stDone
		wantViolation(t, e, "scoreboard")
	})
}

func TestDetectROBBoundsCorruption(t *testing.T) {
	t.Run("tail-behind-head", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		e.tailSeq = e.headSeq - 1
		wantViolation(t, e, "rob-bounds")
	})
	t.Run("instruction-count", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		e.stats.Instructions += 3
		wantViolation(t, e, "rob-bounds")
	})
	t.Run("fetch-queue", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		e.dispatchSeq = e.tailSeq + 1
		wantViolation(t, e, "rob-bounds")
	})
}

func TestDetectSlotAccountingCorruption(t *testing.T) {
	in := check.NewInjector(2)
	e := cleanEngine(t, FourWide)
	e.stats.Stalls[in.Intn(int(NumStallCauses))]++
	wantViolation(t, e, "slot-accounting")
}

func TestDetectCalendarCorruption(t *testing.T) {
	// findScheduled locates a wheel slot with a resident completion.
	findSlot := func(t *testing.T, e *Engine) (int, int) {
		t.Helper()
		for i := range e.completions.slots {
			if len(e.completions.slots[i]) > 0 {
				return i, 0
			}
		}
		t.Fatal("no scheduled completions to corrupt")
		return 0, 0
	}
	t.Run("slot-seq", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		i, j := findSlot(t, e)
		e.completions.slots[i][j] = e.tailSeq + 5 // not in flight
		wantViolation(t, e, "calendar")
	})
	t.Run("done-cycle", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		i, j := findSlot(t, e)
		s := e.completions.slots[i][j]
		e.rob[s&uint64(len(e.rob)-1)].doneCycle ^= 1 << 3 // remaps to another slot
		wantViolation(t, e, "calendar")
	})
	t.Run("stale-overflow", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		e.completions.overflow = append(e.completions.overflow,
			calEvent{cycle: e.cycle - 1, seq: e.headSeq})
		wantViolation(t, e, "calendar")
	})
}

func TestDetectStoreRingCorruption(t *testing.T) {
	t.Run("known-past-count", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		e.storeKnown = e.storeCount + 1
		wantViolation(t, e, "store-ring")
	})
	t.Run("issued-not-advanced", func(t *testing.T) {
		e := cleanEngine(t, FourWide)
		if e.storeKnown >= e.storeCount {
			t.Skip("no in-flight stores at this cycle")
		}
		e.storeIssued[(e.storeKnown+1)&uint64(len(e.storeIssued)-1)] = true
		wantViolation(t, e, "store-ring")
	})
}

func TestDetectMemWaiterCorruption(t *testing.T) {
	e := cleanEngine(t, FourWide)
	e.memWaitHead = len(e.memWaiters) + 1
	wantViolation(t, e, "mem-waiters")
}

func TestDetectSboxCacheCorruption(t *testing.T) {
	in := check.NewInjector(3)
	t.Run("valid-without-tag", func(t *testing.T) {
		e := cleanEngine(t, FourWidePlus)
		c := &e.sboxCaches[in.Intn(len(e.sboxCaches))]
		c.hasTag = false
		c.valid = 1 << uint(in.Intn(32))
		in.Note(check.FaultSboxCache)
		wantViolation(t, e, "sbox-cache")
	})
	t.Run("unaligned-tag", func(t *testing.T) {
		e := cleanEngine(t, FourWidePlus)
		c := &e.sboxCaches[in.Intn(len(e.sboxCaches))]
		c.hasTag = true
		c.tag |= 8 // inside the alignment granule
		wantViolation(t, e, "sbox-cache")
	})
}

// checkedStats runs one blowfish session through a model and returns its
// stats.
func checkedStats(t *testing.T, cfg Config) *Stats {
	t.Helper()
	k, err := kernels.Get("blowfish")
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 16)
	iv := make([]byte, 8)
	pt := make([]byte, 4<<10)
	for i := range pt {
		pt[i] = byte(i * 7)
	}
	m, _, err := kernels.NewRun(k, isa.FeatRot, key, iv, pt)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cfg, &MachineStream{M: m})
	e.WarmData(kernels.CtxAddr, k.CtxBytes)
	e.WarmCode(len(m.Prog.Code))
	st, err := e.Run()
	if err != nil {
		t.Fatalf("%s (checked=%v): %v", cfg.Name, cfg.Checked, err)
	}
	return st
}

// TestCheckedRunCleanAndIdentical is the other half of the fault-injection
// contract: on an uncorrupted run every checker stays silent for every
// model, and checked mode changes no simulated outcome — the stats are
// bit-identical with and without it.
func TestCheckedRunCleanAndIdentical(t *testing.T) {
	for _, base := range []Config{FourWide, FourWidePlus, EightWidePlus, Dataflow} {
		t.Run(base.Name, func(t *testing.T) {
			plain := checkedStats(t, base)
			chk := base
			chk.Checked = true
			if got := checkedStats(t, chk); !reflect.DeepEqual(plain, got) {
				t.Fatalf("checked mode changed the stats:\nplain:   %+v\nchecked: %+v", plain, got)
			}
		})
	}
}

// budgetMachines are the machines the error-path tests cover: the cycle
// loop's FourWide, and Dataflow and DF+Window, which Run times with the
// program-order pass.
func budgetMachines(t *testing.T) []Config {
	t.Helper()
	window, err := BottleneckConfig("Window")
	if err != nil {
		t.Fatal(err)
	}
	return []Config{FourWide, Dataflow, window}
}

// sameRunError times a fresh stream with the cycle loop and fails unless
// it returns the error err, which Run returned for cfg.
func sameRunError(t *testing.T, cfg Config, err error, stream func() Stream) {
	t.Helper()
	_, loopErr := NewEngine(cfg, stream()).runCycles()
	if loopErr == nil || err.Error() != loopErr.Error() {
		t.Fatalf("%s: Run returned %q, the cycle loop %v", cfg.Name, err, loopErr)
	}
}

// TestCycleBudget pins the engine-side runaway guard on both timing
// paths: Run stops with the cycle loop's *check.BudgetError, and stops
// taking records from the stream once the budget is reached instead of
// draining it.
func TestCycleBudget(t *testing.T) {
	k, err := kernels.Get("blowfish")
	if err != nil {
		t.Fatal(err)
	}
	machine := func() *emu.Machine {
		m, _, err := kernels.NewRun(k, isa.FeatRot, make([]byte, 16), make([]byte, 8), make([]byte, 4<<10))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, cfg := range budgetMachines(t) {
		t.Run(cfg.Name, func(t *testing.T) {
			cfg.CycleBudget = 500
			m := machine()
			e := NewEngine(cfg, &MachineStream{M: m})
			_, err := e.Run()
			if !check.IsBudget(err) {
				t.Fatalf("Run returned %v, want a *check.BudgetError", err)
			}
			var b *check.BudgetError
			if !errors.As(err, &b) || b.Resource != "cycles" || b.Limit != 500 || b.Used != b.Limit {
				t.Fatalf("budget error fields: %+v", b)
			}
			if m.Halted() {
				t.Fatalf("Run drained the stream (%d instructions) before reporting the budget", m.Icount)
			}
			if e.programOrder() {
				sameRunError(t, cfg, err, func() Stream { return &MachineStream{M: machine()} })
			}
		})
	}
}

// TestRunawayStreamFails pins end-to-end propagation of a machine fault
// through the stream into Run on both timing paths: a kernel that never
// halts exhausts its instruction budget and the timing run fails with
// that typed error instead of reporting stats for the silently truncated
// stream.
func TestRunawayStreamFails(t *testing.T) {
	b := isa.NewBuilder("runaway", isa.FeatNoRot)
	b.Label("loop")
	b.ADDQI(isa.RA0, 1, isa.RA0)
	b.BR("loop")
	prog := b.Build()
	stream := func() Stream {
		m := emu.New(prog, simmem.New(0), 0x80000)
		m.MaxInsts = 20_000
		return &MachineStream{M: m}
	}
	for _, cfg := range budgetMachines(t) {
		t.Run(cfg.Name, func(t *testing.T) {
			e := NewEngine(cfg, stream())
			_, err := e.Run()
			if err == nil {
				t.Fatal("Run succeeded over a budget-faulted stream")
			}
			if !check.IsBudget(err) {
				t.Fatalf("Run returned %v, want it to wrap the *check.BudgetError", err)
			}
			if !strings.Contains(err.Error(), "source stream") {
				t.Fatalf("error %q does not attribute the fault to the source stream", err)
			}
			if e.programOrder() {
				sameRunError(t, cfg, err, stream)
			}
		})
	}
}

// TestCheckedCatchesLiveCorruption demonstrates the per-cycle hook: a
// fault injected mid-run is caught by Run itself on the next cycle
// boundary, identified by checker and cycle.
func TestCheckedCatchesLiveCorruption(t *testing.T) {
	cfg := FourWide
	cfg.Checked = true
	e := newSteadyEngine(t, cfg, 20_000)
	in := check.NewInjector(4)
	en := inFlight(t, e, in)
	en.seq += 1 << 40
	in.Note(check.FaultROBEntry)
	// Drive the same loop Run uses; the checker must fire on the first
	// boundary.
	e.step()
	e.account()
	e.cycle++
	err := e.CheckInvariants()
	v, ok := check.AsViolation(err)
	if !ok {
		t.Fatalf("live corruption not caught at the next cycle boundary: %v", err)
	}
	if v.Cycle != e.cycle {
		t.Fatalf("violation reports cycle %d, engine at %d", v.Cycle, e.cycle)
	}
}
