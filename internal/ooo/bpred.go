package ooo

// bpred is a bimodal 2-bit predictor plus an 8-entry return-address stack.
// Direct-branch targets are assumed to hit an ideal BTB (loop branches in
// the cipher kernels are static-target), so mispredictions come from
// direction errors and RAS misses — consistent with the paper's finding
// that these kernels predict extremely well.
type bpred struct {
	table []uint8 // 2-bit counters

	// Return-address stack as a fixed ring (drop-oldest on overflow), so
	// pushes never allocate.
	ras     [rasDepth]int
	rasBase int // index of the oldest live entry
	rasLen  int
}

const (
	bpredEntries = 2048
	rasDepth     = 8
)

func newBpred() *bpred {
	t := make([]uint8, bpredEntries)
	for i := range t {
		t[i] = 2 // weakly taken: loops warm up fast
	}
	return &bpred{table: t}
}

func (b *bpred) index(pc int) int { return pc & (bpredEntries - 1) }

// predict returns whether the prediction machinery redirects fetch
// correctly for the branch at pc of the given kind (brCond..brRet). It
// also updates state (trace-driven: the true outcome is known at hand, so
// update is immediate; for loop-dominated kernels this matches delayed
// update).
func (b *bpred) predict(pc int, kind uint8, taken bool, target int) (correct bool) {
	switch kind {
	case brCall:
		b.push(pc + 1)
		return true
	case brRet:
		return b.pop() == target
	case brJump:
		return true // direct target, ideal BTB
	default:
		ctr := &b.table[b.index(pc)]
		pred := *ctr >= 2
		if taken && *ctr < 3 {
			*ctr++
		} else if !taken && *ctr > 0 {
			*ctr--
		}
		return pred == taken
	}
}

func (b *bpred) push(v int) {
	if b.rasLen == rasDepth {
		b.rasBase = (b.rasBase + 1) % rasDepth // drop the oldest
		b.rasLen--
	}
	b.ras[(b.rasBase+b.rasLen)%rasDepth] = v
	b.rasLen++
}

func (b *bpred) pop() int {
	if b.rasLen == 0 {
		return -1
	}
	b.rasLen--
	return b.ras[(b.rasBase+b.rasLen)%rasDepth]
}
