package ooo

// Warmup/measure phase split. Interval sampling runs the engine over
// windows of a longer recorded stream: a warmup prefix puts the caches,
// TLBs, branch predictor and SBox caches into a representative state, and
// only the instructions after it are measured. The engine supports this
// as a discardable stats epoch: the run proceeds exactly as normal (warmup
// changes no timing decision), and when the epoch closes the current
// counters are copied as a base that is subtracted from the final stats —
// and, in lockstep, from the per-PC profile — before Run returns.
//
// Epoch boundary semantics. The epoch closes in two places:
//
//   - Dispatch side: at the dispatch of the last warmup instruction.
//     Counters charged at dispatch (Instructions, ClassCounts, Loads,
//     Stores) split exactly there. Counters charged in other stages
//     (Branches and Mispredicts at fetch, SBox and cache counters and the
//     profile's ExecCycles at issue) are copied at the same instant, so a
//     few in-flight instructions' events can land on either side of the
//     cut; the skew is bounded by the front-end depth plus the window
//     size.
//   - Commit side: at the end of the cycle in which the last warmup
//     instruction commits. Cycles, the commit-slot breakdown (Stalls) and
//     the profile's Retired and Slots split there. Until that commit the
//     machine is still working off the warmup prefix's critical path; a
//     machine with an unbounded front end and window (DF) dispatches the
//     whole prefix in its first few cycles, so a dispatch-side cycle base
//     would charge that path to the measured window. The base is taken
//     between cycles, so measured Stalls.Slots() == measured Cycles *
//     IssueWidth still holds on finite-width machines, and the measured
//     profile still satisfies Profile.Total() == Stats.Stalls. A run that
//     drains in the cycle of that commit (the final cycle is not
//     accounted) closes the commit side at the end of the run.

// noSeq disarms the commit-side close: no instruction sequence number
// exceeds it, so run's per-cycle check never fires.
const noSeq = ^uint64(0)

// SetWarmup arms the warmup epoch: the first n dispatched instructions
// are simulated normally but excluded from the returned Stats (and from
// an attached profile). Must be called before Run. n == 0 disables the
// split. If the stream delivers n or fewer instructions the epoch never
// closes: the full run is reported and WarmupDiscarded returns zeros.
func (e *Engine) SetWarmup(n uint64) {
	e.warmupLeft = n
}

// WarmupDiscarded reports the instruction and cycle counts of the warmup
// epoch that Run discarded (zeros when no warmup was configured or the
// epoch never closed).
func (e *Engine) WarmupDiscarded() (insts, cycles uint64) {
	if !e.warmupBaseSet {
		return 0, 0
	}
	return e.warmupBase.Instructions, e.warmupBase.Cycles
}

// beginMeasure closes the dispatch side of the warmup epoch: every
// counter's current value becomes the base subtracted from the final
// stats. Called from dispatch (wireDependencies) when the last warmup
// instruction, seq, has been charged. It arms the commit-side close,
// which later overwrites the cycle and commit-slot bases.
func (e *Engine) beginMeasure(seq uint64) {
	e.warmupBase = e.stats
	// run() copies the memory-system totals into stats only at the end;
	// copy them live here.
	e.warmupBase.DL1Misses, e.warmupBase.L2Misses, e.warmupBase.TLBMisses = e.mem.misses()
	e.warmupBaseSet = true
	e.warmupSeq = seq
	if e.profPCs != nil {
		if cap(e.warmupProfBase) < len(e.profPCs) {
			e.warmupProfBase = make([]PCProfile, len(e.profPCs))
		}
		e.warmupProfBase = e.warmupProfBase[:len(e.profPCs)]
		copy(e.warmupProfBase, e.profPCs)
	}
}

// closeCommitSide takes the cycle and commit-slot bases. run calls it at
// the end of the cycle in which the last warmup instruction committed,
// after account() has charged that cycle.
func (e *Engine) closeCommitSide() {
	e.warmupSeq = noSeq
	e.warmupBase.Cycles = e.cycle
	e.warmupBase.Stalls = e.stats.Stalls
	for i := range e.profPCs {
		b := &e.warmupProfBase[i]
		b.Retired = e.profPCs[i].Retired
		b.Slots = e.profPCs[i].Slots
	}
}

// applyWarmup subtracts the warmup base from the final stats and profile.
// Called once at the very end of run(), after the memory totals are
// copied and the final invariant check has passed — checked mode always
// validates the cumulative counters.
func (e *Engine) applyWarmup() {
	if !e.warmupBaseSet {
		return
	}
	if e.warmupSeq != noSeq {
		e.closeCommitSide()
	}
	e.stats = e.stats.Delta(&e.warmupBase)
	if e.profPCs != nil {
		for i := range e.profPCs {
			p, b := &e.profPCs[i], &e.warmupProfBase[i]
			p.Retired -= b.Retired
			p.ExecCycles -= b.ExecCycles
			p.Slots = p.Slots.sub(b.Slots)
		}
	}
}
