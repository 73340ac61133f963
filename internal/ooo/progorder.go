package ooo

import (
	"fmt"
	"math"
	"sync"

	"cryptoarch/internal/check"
	"cryptoarch/internal/isa"
)

// Program-order timing pass. On a machine whose issue width, functional
// units, fetch bandwidth and load/store queue are unbounded and whose
// memory is perfect (DF, DF+Alias, DF+Branch and DF+Window), no
// instruction ever waits for a resource another one holds: it waits only
// for cycles that older instructions have already fixed. Run then times
// the stream in one pass in commit order, computing each instruction's
// cycles from those of earlier ones, with no reorder buffer, ready queues
// or completion calendar:
//
//	fetch     f_i = max(f_{i-1}, d_{i-Q}, R)
//	dispatch  d_i = max(f_i+1, d_{i-1}, c_{i-W})
//	issue     s_i = max(d_i+1, x_p for the last writer p of each source,
//	                    for a load x_t and x_{data(t)} of the youngest earlier
//	                    store t overlapping a loaded byte, and, without
//	                    perfect alias detection, s_t of every earlier store)
//	done      x_i = s_i + latency_i
//	commit    c_i = max(c_{i-1}, x_i+1)
//	cycles    max(c_{n-1}, f_n)
//
// Q is the fetch-queue capacity, W the window, and R the cycle fetch
// resumes after the latest mispredicted branch b, max(x_b+1,
// f_b+BranchPenalty). Each term is the condition the cycle loop's stage
// tests, met at the first cycle it can be (DESIGN.md §5 has the
// argument), so the pass returns the loop's Stats and errors exactly;
// TestProgramOrderMatchesCycleLoop pins that.

// programOrder reports whether Run may take the program-order pass: no
// resource is shared between instructions, and nothing observes the
// pipeline cycle by cycle (a tracer, a profile, a warmup epoch and
// Checked mode all need the cycle loop).
func (e *Engine) programOrder() bool {
	c := &e.cfg
	for k := range fuPool {
		if e.poolCap[fuPool[k]] != math.MaxInt32 {
			return false
		}
	}
	return inf(c.IssueWidth) && inf(c.LSQSize) &&
		(inf(c.FetchWidth) || inf(c.FetchBlocksPerCycle)) &&
		c.PerfectMem && !c.Checked &&
		e.tracer == nil && e.profPCs == nil && e.warmupLeft == 0
}

// orderSlot is what the pass keeps of one instruction for later ones to
// read back: uint32 stamps, like the loop's, since no run reaches 2^32
// cycles.
type orderSlot struct {
	dispatch, commit uint32
	// fwd is, for a store, the earliest cycle a load that overlaps it may
	// issue: the later of its own done cycle and its data producer's.
	fwd uint32
}

// orderRings recycles the pass's history rings (*[]orderSlot) between
// runs. Every slot is written before it is read, so a recycled ring needs
// no clearing.
var orderRings sync.Pool

// runProgramOrder times the stream by the recurrence above.
func (e *Engine) runProgramOrder() (*Stats, error) {
	q := uint64(e.fetchQueueCap())
	w := uint64(e.effWindow())
	// The ring must reach back W instructions for the window and Q for the
	// fetch queue. A store more than W back has committed before any
	// later load dispatches, so forwarding never needs an older slot.
	rp, _ := orderRings.Get().(*[]orderSlot)
	if n := nextPow2(int(max(q, w))); rp == nil || len(*rp) < n {
		r := make([]orderSlot, n)
		rp = &r
	}
	defer orderRings.Put(rp)
	ring := *rp
	mask := uint64(len(ring) - 1)

	// The loop fails at the end of the first cycle that reaches the cycle
	// budget, or 2^32 for its uint32 stamps; an instruction that commits
	// at or past that cycle means it would have.
	limit := uint64(1) << 32
	if b := e.cfg.CycleBudget; b != 0 && b < limit {
		limit = b
	}

	var (
		uops    = e.uops
		st      = &e.stats
		regDone [isa.NumRegs]uint64 // done cycle of each register's last writer
		i       uint64              // instructions timed so far
		f, d, c uint64              // f, d and c of instruction i-1
		resume  uint64              // R
		stIssue uint64              // latest issue cycle of any store
		penalty = uint64(e.cfg.BranchPenalty)
	)
	for {
		recs, ok := e.src.Next()
		if !ok {
			break
		}
		for k := range recs {
			rec := &recs[k]
			u := &uops[rec.Idx]
			f = max(f, resume)
			if i >= q {
				f = max(f, uint64(ring[(i-q)&mask].dispatch))
			}
			d = max(d, f+1)
			if i >= w {
				d = max(d, uint64(ring[(i-w)&mask].commit))
			}
			s := d + 1
			for _, r := range u.srcs[:u.nsrc] {
				s = max(s, regDone[r])
			}
			if u.isLoad {
				if t := e.lastStoreByte.getMax(rec.Addr, uint64(u.size)); t != 0 && i-(t-1) <= mask {
					s = max(s, uint64(ring[(t-1)&mask].fwd))
				}
				if !e.cfg.PerfectAlias {
					s = max(s, stIssue)
				}
			}
			x := s + uint64(u.lat)
			if c = max(c, x+1); c >= limit {
				return nil, e.cycleLimitErr(limit)
			}
			sl := &ring[i&mask]
			sl.dispatch, sl.commit = uint32(d), uint32(c)
			if u.isStore {
				sl.fwd = uint32(max(x, regDone[u.data]))
				e.lastStoreByte.setRange(rec.Addr, uint64(u.size), i+1)
				stIssue = max(stIssue, s)
				st.Stores++
			}
			if u.dest != isa.RZ {
				regDone[u.dest] = x
			}

			st.ClassCounts[u.class]++
			if u.isLoad {
				st.Loads++
			}
			switch u.acc {
			case accSbox:
				st.SboxAccesses++
				st.SboxHits++
			case accSboxDPort:
				st.SboxAccesses++
			}
			if u.br != brNone {
				st.Branches++
				if !e.cfg.PerfectBpred && !e.bp.predict(int(rec.Idx), u.br, rec.Taken(), rec.Target()) {
					st.Mispredicts++
					resume = max(resume, x+1, f+penalty)
				}
			}
			i++
		}
	}
	// The loop ends in the cycle fetch finds the stream exhausted, as if
	// fetching instruction n, or in the last commit if that is later.
	f = max(f, resume)
	if i >= q {
		f = max(f, uint64(ring[(i-q)&mask].dispatch))
	}
	cycles := max(c, f)
	if cycles >= limit {
		return nil, e.cycleLimitErr(limit)
	}
	if fs, ok := e.src.(interface{ Err() error }); ok {
		if err := fs.Err(); err != nil {
			return nil, fmt.Errorf("ooo: %s: source stream: %w", e.cfg.Name, err)
		}
	}
	st.Cycles = cycles
	st.Instructions = i
	st.DL1Misses = e.mem.DL1Miss
	st.L2Misses = e.mem.L2Miss
	st.TLBMisses = e.mem.TLBMiss
	out := e.stats
	return &out, nil
}

// cycleLimitErr is the error the cycle loop returns when a run reaches
// limit cycles: the cycle budget's, or the 2^32 guard's.
func (e *Engine) cycleLimitErr(limit uint64) error {
	if limit == e.cfg.CycleBudget {
		return &check.BudgetError{
			Resource: "cycles", Subject: "model " + e.cfg.Name,
			Limit: limit, Used: limit,
		}
	}
	return fmt.Errorf("ooo: %s exceeded 2^32 cycles", e.cfg.Name)
}
