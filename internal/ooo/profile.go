package ooo

// Per-PC cycle profiling. The commit-slot accounting in stats.go answers
// "where did the slots go" per run; this file answers it per static
// instruction. Every slot charged to the run-level StallBreakdown is also
// charged to exactly one PC — retiring slots to the retiring instruction,
// stall slots to the instruction observed at the reorder-buffer head (or,
// when the window is empty, to the next instruction the front end will
// deliver, falling back to the last retired PC once the stream drains) —
// so the per-PC buckets sum to the run-level breakdown exactly. The
// profile is the measurement instrument behind the paper's Figure 5
// argument: it points at the specific rotate chain or table-lookup
// cluster that eats the machine's slot budget.
//
// Profiling is strictly observational (it never changes timing) and costs
// one nil-check per event site when off.

// PCProfile accumulates the per-static-instruction counters of one run.
type PCProfile struct {
	// Retired counts dynamic executions of this PC.
	Retired uint64
	// ExecCycles is the execute-stage occupancy: the sum of the execution
	// latencies of every dynamic instance issued from this PC.
	ExecCycles uint64
	// Slots is the commit-slot breakdown charged to this PC. All zeros on
	// infinite-width machines, which have no slot budget.
	Slots StallBreakdown
}

// SlotTotal is the total number of commit slots charged to this PC.
func (p *PCProfile) SlotTotal() uint64 { return p.Slots.Slots() }

// TopStall returns the dominant non-commit stall cause charged to this
// PC and its slot count (StallCommit and 0 when no stall slots were
// charged).
func (p *PCProfile) TopStall() (StallCause, uint64) {
	best, bestN := StallCommit, uint64(0)
	for c := StallCause(1); c < NumStallCauses; c++ {
		if p.Slots[c] > bestN {
			best, bestN = c, p.Slots[c]
		}
	}
	if bestN == 0 {
		return StallCommit, 0
	}
	return best, bestN
}

// Profile is the per-PC cycle profile of one run: a dense array indexed
// by static instruction index.
type Profile struct {
	Config string
	PCs    []PCProfile
}

// Total sums the per-PC slot buckets. By construction it equals the
// run-level Stats.Stalls exactly (tested in internal/harness).
func (p *Profile) Total() StallBreakdown {
	var t StallBreakdown
	for i := range p.PCs {
		for c, v := range p.PCs[i].Slots {
			t[c] += v
		}
	}
	return t
}

// TotalSlots is the run's whole slot budget as seen by the profile.
func (p *Profile) TotalSlots() uint64 {
	var t uint64
	for i := range p.PCs {
		t += p.PCs[i].SlotTotal()
	}
	return t
}

// TotalRetired sums the per-PC retired counts (== Stats.Instructions).
func (p *Profile) TotalRetired() uint64 {
	var t uint64
	for i := range p.PCs {
		t += p.PCs[i].Retired
	}
	return t
}

// EnableProfile attaches a per-PC profile covering every static
// instruction of the engine's program and returns it. Must be called
// before Run; the returned profile is complete once Run returns.
// Profiling allocates the dense PC array once, here, and nothing
// afterwards.
func (e *Engine) EnableProfile() *Profile {
	p := &Profile{Config: e.cfg.Name, PCs: make([]PCProfile, len(e.code))}
	e.profPCs = p.PCs
	// Slot charging is defined only for finite widths, mirroring account().
	e.profSlots = !inf(e.cfg.IssueWidth)
	if e.profSlots && e.commitIdxs == nil {
		e.commitIdxs = make([]int32, 0, e.cfg.IssueWidth)
	}
	return p
}

// blamePC picks the static instruction charged with this cycle's unused
// commit slots — the per-PC counterpart of headBlame. With instructions
// in flight it is the reorder-buffer head; with an empty window it is the
// instruction the front end is about to deliver (the record an I-cache
// miss stopped fetch on), or the last retired PC.
func (e *Engine) blamePC() int32 {
	if e.headSeq != e.tailSeq {
		return e.at(e.headSeq).idx
	}
	if e.peeked {
		return int32(e.recs[e.recPos].Idx)
	}
	return e.lastRetired
}
