package ooo

import (
	"cryptoarch/internal/check"
	"cryptoarch/internal/core"
)

// Checked-mode invariant validation. With Config.Checked set, Run calls
// checkInvariants at the end of every simulated cycle and aborts with a
// structured *check.Violation at the first inconsistency — the engine
// never keeps simulating over corrupted state, and Stats from a checked
// run are either trustworthy or absent. Each checker owns one stable name
// (the Violation.Check field); the fault-injection tests in
// invariants_test.go corrupt engine state one class at a time and assert
// the owning checker fires, so there are no silently undetectable fault
// classes among the ones modeled.
//
// Checker names and what they guard:
//
//	rob-bounds       ring/window occupancy, fetch-queue accounting,
//	                 dispatched-instruction concordance
//	rob-entry        per-entry seq/state/pendingDeps sanity for every
//	                 in-flight reorder-buffer slot
//	scoreboard       consumer-list structure: node indices inside the
//	                 pool, no cycles, consumer seqs in-flight and younger
//	                 than their producer
//	slot-accounting  online Stalls.Slots() == Cycles*IssueWidth (the
//	                 accounting identity previously asserted only
//	                 post-hoc by tests)
//	calendar         completion-wheel sanity: overflow sorted and
//	                 future-dated, slot residents issued entries whose
//	                 doneCycle maps back to their slot
//	store-ring       store-ordering ring: known prefix <= dispatched
//	                 count, in-flight span within the ring, no issued
//	                 bit pending at the advance point
//	mem-waiters      blocked-load FIFO: head within range, seqs
//	                 strictly increasing and in flight
//	sbox-cache       SBox-cache state: no valid sectors without a tag,
//	                 tags table-aligned
//
// All checks are read-only and allocation-free; cost is O(in-flight
// entries + calSlots) per cycle, paid only when Checked is on.

// CheckInvariants validates the engine's internal consistency at a cycle
// boundary (it is called automatically each cycle when Config.Checked is
// set, and may be called by external harnesses between runs). It returns
// nil or the first *check.Violation found.
func (e *Engine) CheckInvariants() error {
	if v := e.checkROBBounds(); v != nil {
		return v
	}
	if v := e.checkROBEntries(); v != nil {
		return v
	}
	if v := e.checkSlotAccounting(); v != nil {
		return v
	}
	if v := e.checkCalendar(); v != nil {
		return v
	}
	if v := e.checkStoreRing(); v != nil {
		return v
	}
	if v := e.checkMemWaiters(); v != nil {
		return v
	}
	if v := e.checkSboxCaches(); v != nil {
		return v
	}
	return nil
}

// checkROBBounds validates ring occupancy and fetch-queue accounting.
func (e *Engine) checkROBBounds() *check.Violation {
	occ := e.tailSeq - e.headSeq
	if e.tailSeq < e.headSeq {
		return check.Violationf("rob-bounds", e.cycle, "tailSeq %d behind headSeq %d", e.tailSeq, e.headSeq)
	}
	if occ > uint64(len(e.rob)) {
		return check.Violationf("rob-bounds", e.cycle, "occupancy %d exceeds ring size %d", occ, len(e.rob))
	}
	if e.dispatchSeq < e.headSeq || e.dispatchSeq > e.tailSeq {
		return check.Violationf("rob-bounds", e.cycle, "dispatchSeq %d outside the in-flight seqs [%d, %d]", e.dispatchSeq, e.headSeq, e.tailSeq)
	}
	if fq := e.fqLen(); fq > e.fetchQueueCap() {
		return check.Violationf("rob-bounds", e.cycle, "fetch queue occupancy %d exceeds its capacity %d", fq, e.fetchQueueCap())
	}
	if w := e.windowOcc(); w > e.effWindow() {
		return check.Violationf("rob-bounds", e.cycle, "window occupancy %d exceeds window size %d", w, e.effWindow())
	}
	// Every fetched seq is either still in the fetch queue or was
	// dispatched (and counted) exactly once.
	if dispatched := e.tailSeq - uint64(e.fqLen()); e.stats.Instructions != dispatched {
		return check.Violationf("rob-bounds", e.cycle,
			"Stats.Instructions %d != dispatched seqs %d (tail %d - fq %d)",
			e.stats.Instructions, dispatched, e.tailSeq, e.fqLen())
	}
	if e.memOps < 0 {
		return check.Violationf("rob-bounds", e.cycle, "negative LSQ occupancy %d", e.memOps)
	}
	return nil
}

// checkEntryBudget bounds the per-cycle entry walk. Small windows are
// validated in full every cycle; the dataflow model's 2^18 in-flight
// entries are covered by a rotating window instead, so checked mode stays
// O(budget) per cycle and corruption is still caught within
// occupancy/budget cycles.
const checkEntryBudget = 4096

// checkROBEntries validates in-flight reorder-buffer entries and their
// consumer lists: all of them when the window is small, otherwise a
// rotating checkEntryBudget-sized slice per cycle.
func (e *Engine) checkROBEntries() *check.Violation {
	rob, mask := e.rob, uint64(len(e.rob)-1)
	poolLen := int32(len(e.consPool))
	occ := e.tailSeq - e.headSeq
	n, off := occ, uint64(0)
	if occ > checkEntryBudget {
		n = checkEntryBudget
		off = e.checkCursor % occ
		e.checkCursor += checkEntryBudget
	}
	for k := uint64(0); k < n; k++ {
		s := e.headSeq + off + k
		if s >= e.tailSeq {
			s -= occ
		}
		en := &rob[s&mask]
		if en.seq != s {
			return check.Violationf("rob-entry", e.cycle,
				"ring slot %d holds seq %d, want in-flight seq %d", s&mask, en.seq, s)
		}
		if en.state > stDone {
			return check.Violationf("rob-entry", e.cycle, "seq %d has invalid state %d", s, en.state)
		}
		if en.pendingDeps < 0 {
			return check.Violationf("rob-entry", e.cycle, "seq %d has negative pendingDeps %d", s, en.pendingDeps)
		}
		if int(en.kind) >= fuKinds {
			return check.Violationf("rob-entry", e.cycle, "seq %d has invalid FU kind %d", s, en.kind)
		}
		// Consumer list: completion empties the list, so only live
		// producers hold one; walk it with a step budget to catch cycles.
		if en.consHead != 0 && en.state == stDone {
			return check.Violationf("scoreboard", e.cycle, "completed seq %d still holds a consumer list", s)
		}
		steps := int32(0)
		for i := en.consHead; i != 0; {
			if i < 0 || i > poolLen {
				return check.Violationf("scoreboard", e.cycle,
					"seq %d consumer node index %d outside pool [1,%d]", s, i, poolLen)
			}
			if steps++; steps > poolLen {
				return check.Violationf("scoreboard", e.cycle, "seq %d consumer list does not terminate", s)
			}
			n := &e.consPool[i-1]
			if n.seq <= s || n.seq >= e.tailSeq {
				return check.Violationf("scoreboard", e.cycle,
					"seq %d consumer node names seq %d outside (%d,%d)", s, n.seq, s, e.tailSeq)
			}
			if i == en.consTail && n.next != 0 {
				return check.Violationf("scoreboard", e.cycle,
					"seq %d consumer tail node %d has successor %d", s, i, n.next)
			}
			i = n.next
		}
	}
	return nil
}

// checkSlotAccounting verifies the accounting identity online: every
// counted cycle charges exactly IssueWidth commit slots, so at a cycle
// boundary the buckets sum to Cycles*IssueWidth. Infinite-width machines
// have no slot budget and are exempt.
func (e *Engine) checkSlotAccounting() *check.Violation {
	if inf(e.cfg.IssueWidth) {
		return nil
	}
	want := e.cycle * uint64(e.cfg.IssueWidth)
	if got := e.stats.Stalls.Slots(); got != want {
		return check.Violationf("slot-accounting", e.cycle,
			"stall buckets sum to %d slots, want cycles*width = %d*%d = %d",
			got, e.cycle, e.cfg.IssueWidth, want)
	}
	return nil
}

// checkCalendar validates the completion wheel: overflow events sorted
// and future-dated, slot residents issued and mapped to their slot.
func (e *Engine) checkCalendar() *check.Violation {
	c := &e.completions
	for i, ev := range c.overflow {
		if ev.cycle < e.cycle {
			return check.Violationf("calendar", e.cycle, "overflow event for past cycle %d", ev.cycle)
		}
		if i > 0 && c.overflow[i-1].cycle > ev.cycle {
			return check.Violationf("calendar", e.cycle,
				"overflow not sorted: cycle %d after %d", ev.cycle, c.overflow[i-1].cycle)
		}
	}
	rob, mask := e.rob, uint64(len(e.rob)-1)
	for i := range c.slots {
		for _, s := range c.slots[i] {
			en := &rob[s&mask]
			if en.seq != s || s < e.headSeq || s >= e.tailSeq {
				return check.Violationf("calendar", e.cycle,
					"slot %d schedules seq %d which is not in flight", i, s)
			}
			if en.state != stIssued {
				return check.Violationf("calendar", e.cycle,
					"slot %d schedules seq %d in state %d, want issued", i, s, en.state)
			}
			if uint64(en.doneCycle)&(calSlots-1) != uint64(i) {
				return check.Violationf("calendar", e.cycle,
					"seq %d with doneCycle %d resides in slot %d", s, en.doneCycle, i)
			}
			if uint64(en.doneCycle) < e.cycle {
				return check.Violationf("calendar", e.cycle,
					"seq %d scheduled for past cycle %d", s, en.doneCycle)
			}
		}
	}
	return nil
}

// checkStoreRing validates store-ordering state.
func (e *Engine) checkStoreRing() *check.Violation {
	if e.storeKnown > e.storeCount {
		return check.Violationf("store-ring", e.cycle,
			"known-store prefix %d beyond dispatched stores %d", e.storeKnown, e.storeCount)
	}
	if span := e.storeCount - e.storeKnown; span > uint64(len(e.storeIssued)) {
		return check.Violationf("store-ring", e.cycle,
			"in-flight store span %d exceeds ring size %d", span, len(e.storeIssued))
	}
	// advanceStoreKnown runs on every store issue, so at a cycle boundary
	// the ordinal just past the known prefix is never marked issued.
	if e.storeKnown < e.storeCount {
		if e.storeIssued[(e.storeKnown+1)&uint64(len(e.storeIssued)-1)] {
			return check.Violationf("store-ring", e.cycle,
				"ordinal %d issued but known prefix not advanced", e.storeKnown+1)
		}
	}
	return nil
}

// checkMemWaiters validates the blocked-load FIFO.
func (e *Engine) checkMemWaiters() *check.Violation {
	if e.memWaitHead < 0 || e.memWaitHead > len(e.memWaiters) {
		return check.Violationf("mem-waiters", e.cycle,
			"waiter head %d outside [0,%d]", e.memWaitHead, len(e.memWaiters))
	}
	var prev uint64
	for i := e.memWaitHead; i < len(e.memWaiters); i++ {
		s := e.memWaiters[i]
		if s >= e.tailSeq {
			return check.Violationf("mem-waiters", e.cycle, "waiter seq %d was never fetched", s)
		}
		if i > e.memWaitHead && s <= prev {
			return check.Violationf("mem-waiters", e.cycle,
				"waiter seqs not increasing: %d after %d", s, prev)
		}
		prev = s
	}
	return nil
}

// checkSboxCaches validates SBox-cache tags: valid sectors require a tag
// and tags are table-aligned.
func (e *Engine) checkSboxCaches() *check.Violation {
	for i := range e.sboxCaches {
		c := &e.sboxCaches[i]
		if !c.hasTag && c.valid != 0 {
			return check.Violationf("sbox-cache", e.cycle,
				"cache %d holds valid sectors %#x without a tag", i, c.valid)
		}
		if c.hasTag && c.tag&^core.SboxAlignMask != 0 {
			return check.Violationf("sbox-cache", e.cycle,
				"cache %d tag %#x not table-aligned", i, c.tag)
		}
	}
	return nil
}
