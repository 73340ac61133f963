package ooo

import "fmt"

// Commit-slot stall attribution. Every cycle of a finite-width run has
// IssueWidth commit slots; each slot either retires an instruction
// (StallCommit) or is charged to exactly one stall cause, determined by
// inspecting the reorder-buffer head (or the front end when the window is
// empty). The buckets therefore sum to Cycles*IssueWidth exactly, giving
// the paper's Figure 5 bottleneck attribution a second, single-run
// derivation: shares of Issue+Resource slots versus Branch versus Memory
// slots rank the bottlenecks without re-running the dataflow ablations.

// StallCause identifies where a commit slot went.
type StallCause uint8

const (
	StallCommit   StallCause = iota // slot retired an instruction
	StallIFetch                     // front-end fill: fetch/decode/rename latency
	StallICache                     // I-cache miss stall
	StallBranch                     // branch-redirect recovery
	StallWindow                     // window full behind a long-latency head
	StallIssue                      // head ready, issue width exhausted
	StallIALU                       // head ready, integer-ALU pool saturated
	StallMult                       // head ready, multiplier lanes saturated
	StallRot                        // head ready, rotator/XBOX units saturated
	StallSboxPort                   // head ready, its SBox-cache ports saturated
	StallDPort                      // head ready, D-cache ports saturated
	StallAlias                      // head is a load waiting on store-address ordering
	StallDL1Miss                    // head's data access missed the L1 D-cache
	StallL2Miss                     // head's data access missed the L2
	StallTLBMiss                    // head's data access missed the TLB
	StallExec                       // head executing: FU or cache-hit latency
	StallDrain                      // instruction stream exhausted
	NumStallCauses
)

var stallNames = [NumStallCauses]string{
	"commit", "ifetch", "icache", "branch", "window", "issue",
	"ialu", "mult", "rot", "sboxport", "dport",
	"alias", "dl1miss", "l2miss", "tlbmiss", "exec", "drain",
}

func (c StallCause) String() string {
	if int(c) < len(stallNames) {
		return stallNames[c]
	}
	return "stall(?)"
}

// StallBreakdown is the per-cause slot count of one run. It is all zeros
// for infinite-width machines (the dataflow model has no slot budget).
type StallBreakdown [NumStallCauses]uint64

// Slots is the total slot count, Cycles*IssueWidth for finite widths.
func (b *StallBreakdown) Slots() uint64 {
	var t uint64
	for _, v := range b {
		t += v
	}
	return t
}

// Stalled is the count of slots that did not retire an instruction.
func (b *StallBreakdown) Stalled() uint64 { return b.Slots() - b[StallCommit] }

// Share is a cause's fraction of all slots (0 when no slots were charged).
func (b *StallBreakdown) Share(c StallCause) float64 {
	t := b.Slots()
	if t == 0 {
		return 0
	}
	return float64(b[c]) / float64(t)
}

// IssueResSlots groups the Figure 5 "Issue" and "Res" causes: slots lost
// to issue bandwidth and functional-unit/port supply.
func (b *StallBreakdown) IssueResSlots() uint64 {
	return b[StallIssue] + b[StallIALU] + b[StallMult] + b[StallRot] +
		b[StallSboxPort] + b[StallDPort]
}

// MemSlots groups the Figure 5 "Mem" causes: slots lost to cache and TLB
// misses on either side of the machine.
func (b *StallBreakdown) MemSlots() uint64 {
	return b[StallICache] + b[StallDL1Miss] + b[StallL2Miss] + b[StallTLBMiss]
}

// BranchSlots is the Figure 5 "Branch" cause.
func (b *StallBreakdown) BranchSlots() uint64 { return b[StallBranch] }

// sub subtracts a previous breakdown (for interval reporting).
func (b StallBreakdown) sub(prev StallBreakdown) StallBreakdown {
	for i := range b {
		b[i] -= prev[i]
	}
	return b
}

// DeltaSigned returns the signed per-cause slot difference b−base. Unlike
// sub it never wraps: the differential accounting layer compares arbitrary
// runs, where either side may be larger per cause.
func (b *StallBreakdown) DeltaSigned(base *StallBreakdown) [NumStallCauses]int64 {
	var d [NumStallCauses]int64
	for i := range b {
		d[i] = int64(b[i]) - int64(base[i])
	}
	return d
}

// Width returns the commit width implied by the run's slot accounting:
// Stalls.Slots()/Cycles, which the slots == cycles×width invariant makes
// exact on finite-width machines. It returns 0 for machines with no slot
// budget (the dataflow model) and for zero-cycle runs, and an error when
// the accounting is inconsistent (slots not an exact multiple of cycles)
// — the signal the differential layer refuses to attribute over.
func (s *Stats) Width() (uint64, error) {
	slots := s.Stalls.Slots()
	if slots == 0 {
		return 0, nil
	}
	if s.Cycles == 0 {
		return 0, fmt.Errorf("ooo: %s: %d slots charged over zero cycles", s.Config, slots)
	}
	if slots%s.Cycles != 0 {
		return 0, fmt.Errorf("ooo: %s: %d slots over %d cycles is not a whole width", s.Config, slots, s.Cycles)
	}
	return slots / s.Cycles, nil
}

// SboxMisses is the count of SBox-cache accesses that had to fetch their
// sector from the data-cache hierarchy.
func (s *Stats) SboxMisses() uint64 { return s.SboxAccesses - s.SboxHits }

// SboxHitRate is the SBox-cache hit fraction (0 when the run made no SBox
// accesses).
func (s *Stats) SboxHitRate() float64 {
	if s.SboxAccesses == 0 {
		return 0
	}
	return float64(s.SboxHits) / float64(s.SboxAccesses)
}

// MispredictRate is the branch misprediction fraction (0 when the run had
// no branches).
func (s *Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// Accumulate adds every counter of o into s — how interval sampling sums
// its measured windows, each a disjoint slice of one session, before
// extrapolating to the whole session. Config is left as s's.
func (s *Stats) Accumulate(o *Stats) {
	s.Cycles += o.Cycles
	s.Instructions += o.Instructions
	for i := range s.ClassCounts {
		s.ClassCounts[i] += o.ClassCounts[i]
	}
	s.Branches += o.Branches
	s.Mispredicts += o.Mispredicts
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.SboxAccesses += o.SboxAccesses
	s.SboxHits += o.SboxHits
	s.DL1Misses += o.DL1Misses
	s.L2Misses += o.L2Misses
	s.TLBMisses += o.TLBMisses
	for i := range s.Stalls {
		s.Stalls[i] += o.Stalls[i]
	}
}

// Delta returns the counter differences since prev, for interval
// reporting over a long session. Config is carried from s.
func (s *Stats) Delta(prev *Stats) Stats {
	d := *s
	d.Cycles -= prev.Cycles
	d.Instructions -= prev.Instructions
	for i := range d.ClassCounts {
		d.ClassCounts[i] -= prev.ClassCounts[i]
	}
	d.Branches -= prev.Branches
	d.Mispredicts -= prev.Mispredicts
	d.Loads -= prev.Loads
	d.Stores -= prev.Stores
	d.SboxAccesses -= prev.SboxAccesses
	d.SboxHits -= prev.SboxHits
	d.DL1Misses -= prev.DL1Misses
	d.L2Misses -= prev.L2Misses
	d.TLBMisses -= prev.TLBMisses
	d.Stalls = d.Stalls.sub(prev.Stalls)
	return d
}
