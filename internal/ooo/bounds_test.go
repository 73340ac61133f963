package ooo

import (
	"fmt"
	"math"

	"cryptoarch/internal/isa"
)

// Schedule-free lower bounds on a run's cycle count, computed from its
// instruction stream alone. No machine can beat them:
//
//   - span: the dataflow critical path. An instruction issues no earlier
//     than the done cycle of the last writer of each source register and,
//     for a load, of the youngest earlier store overlapping a loaded byte
//     and of that store's data producer (wireDependencies' edges), and it
//     executes for at least decode's latency under DF's SBox routing,
//     which no config undercuts. Fetch, dispatch and commit add a cycle
//     each, so cycles ≥ span + 3; DF, which has no other limit, meets it.
//   - issue width: a finite-width machine commits at most IssueWidth
//     instructions a cycle.
//   - functional units: a finite pool serves at most its units' worth of
//     fuCost a cycle, with kinds routed to pools as decode routes them
//     for the config.
//
// Memory is tracked per byte, as the engine's alias map does: at coarser
// grain RC4's byte-wise state updates would chain through false
// dependences.

// pipelineDepth is the cycles fetch, dispatch and commit add to the
// dataflow critical path.
const pipelineDepth = 3

// DataflowSpan returns the dataflow critical path of src's instructions:
// the latest done cycle when every instruction issues at cycle 0 or as
// soon as its producers are done. It drains src.
func DataflowSpan(src Stream) uint64 {
	span, _, _ := streamBounds(&Dataflow, src)
	return span
}

// streamBounds drains src and returns its dataflow span, its instruction
// count, and the fuCost its instructions put on each functional-unit pool
// under cfg's routing.
func streamBounds(cfg *Config, src Stream) (span, insts uint64, work [fuKinds]uint64) {
	code := src.Program().Code
	df, routed := decode(code, &Dataflow), decode(code, cfg)
	var (
		regDone [isa.NumRegs]uint64
		fwd     []uint64 // per instruction: for a store, its forwarding load's issue floor
		alias   = newAliasMap()
	)
	for {
		recs, ok := src.Next()
		if !ok {
			return span, insts, work
		}
		for k := range recs {
			rec := &recs[k]
			u := &df[rec.Idx]
			var s uint64
			for _, r := range u.srcs[:u.nsrc] {
				s = max(s, regDone[r])
			}
			if u.isLoad {
				if t := alias.getMax(rec.Addr, uint64(u.size)); t != 0 {
					s = max(s, fwd[t-1])
				}
			}
			x := s + uint64(u.lat)
			span = max(span, x)
			var fw uint64
			if u.isStore {
				fw = max(x, regDone[u.data])
				alias.setRange(rec.Addr, uint64(u.size), insts+1)
			}
			fwd = append(fwd, fw)
			if u.dest != isa.RZ {
				regDone[u.dest] = x
			}
			kind := routed[rec.Idx].kind
			work[fuPool[kind]] += uint64(fuCost[kind])
			insts++
		}
	}
}

// CheckLowerBounds reports the first schedule-free lower bound that st,
// the Stats of a run of cfg over the same instructions as src, breaks. A
// broken bound is an engine bug. It drains src.
func CheckLowerBounds(cfg Config, src Stream, st *Stats) error {
	span, insts, work := streamBounds(&cfg, src)
	var pools Engine
	pools.cfg = cfg
	pools.initPools()
	if st.Instructions != insts {
		return fmt.Errorf("%s: Stats report %d instructions, the stream has %d", cfg.Name, st.Instructions, insts)
	}
	if st.Cycles < span+pipelineDepth {
		return fmt.Errorf("%s: %d cycles beat the dataflow span %d + %d", cfg.Name, st.Cycles, span, pipelineDepth)
	}
	if w := cfg.IssueWidth; !inf(w) {
		if b := ceilDiv(insts, uint64(w)); st.Cycles < b {
			return fmt.Errorf("%s: %d cycles beat the issue-width bound %d", cfg.Name, st.Cycles, b)
		}
	}
	for p, units := range pools.poolCap {
		if fuPool[p] != uint8(p) || units == math.MaxInt32 {
			continue // not a pool (kindMul64 shares kindMul32's), or unbounded
		}
		if b := ceilDiv(work[p], uint64(units)); st.Cycles < b {
			return fmt.Errorf("%s: %d cycles beat pool %d's bound %d (%d units of work on %d units)",
				cfg.Name, st.Cycles, p, b, work[p], units)
		}
	}
	return nil
}

func ceilDiv(a, b uint64) uint64 { return (a + b - 1) / b }
