package ooo

import (
	"testing"

	"cryptoarch/internal/isa"
)

func TestSetAssocHitAfterFill(t *testing.T) {
	c := newSetAssoc(64, 2, 5)
	addr := uint64(0x20000)
	if c.lookup(addr, true) {
		t.Fatal("cold access must miss")
	}
	if !c.lookup(addr, true) {
		t.Fatal("second access must hit")
	}
	if !c.lookup(addr+31, true) {
		t.Fatal("same block must hit")
	}
	if c.lookup(addr+32, true) {
		t.Fatal("next block must miss")
	}
}

func TestSetAssocLRU(t *testing.T) {
	c := newSetAssoc(1, 2, 5) // single set, 2 ways
	a := uint64(0x1000)
	b := uint64(0x2000)
	d := uint64(0x3000)
	c.lookup(a, true)
	c.lookup(b, true)
	c.lookup(a, true) // a most recent; b is LRU
	c.lookup(d, true) // evicts b
	if !c.lookup(a, true) {
		t.Fatal("a must survive")
	}
	if c.lookup(b, true) {
		t.Fatal("b must have been evicted")
	}
}

func TestMemSystemLatencies(t *testing.T) {
	m := newMemSystem()
	addr := uint64(0x40000)
	cold := m.dataAccess(addr, 0)
	if cold <= l1HitLat+l2HitLat {
		t.Fatalf("cold miss too cheap: %d", cold)
	}
	warm := m.dataAccess(addr, 1000)
	if warm != l1HitLat {
		t.Fatalf("warm hit = %d, want %d (TLB warm too)", warm, l1HitLat)
	}
	// Next-line prefetch: the following block should now be an L1 hit.
	if lat := m.dataAccess(addr+32, 2000); lat != l1HitLat {
		t.Fatalf("prefetched line = %d, want %d", lat, l1HitLat)
	}
}

func TestTLBMissCharged(t *testing.T) {
	m := newMemSystem()
	a := uint64(0x100000)
	first := m.dataAccess(a, 0)
	if first < tlbMissLat {
		t.Fatalf("first access must include a TLB miss: %d", first)
	}
	// Same page, different (cold) line: TLB hit, cache miss only.
	second := m.dataAccess(a+64, 1000)
	if second >= first {
		t.Fatalf("TLB should be warm: %d vs %d", second, first)
	}
}

func TestBusSerialization(t *testing.T) {
	m := newMemSystem()
	base := m.busFree
	d1 := m.busAcquire(100)
	d2 := m.busAcquire(100)
	if d1 != 0 || d2 != busOccupancy {
		t.Fatalf("bus queueing: %d %d (free was %d)", d1, d2, base)
	}
}

// branchKind predecodes a lone instruction of op into its branch kind.
func branchKind(op isa.Op) uint8 {
	return decode([]isa.Inst{{Op: op}}, &FourWide)[0].br
}

func TestBpredLoopBranch(t *testing.T) {
	bp := newBpred()
	in := branchKind(isa.OpBNE)
	correct := 0
	// A loop branch: taken 99 times, then falls through.
	for i := 0; i < 100; i++ {
		taken := i != 99
		if bp.predict(10, in, taken, 3) {
			correct++
		}
	}
	if correct < 90 {
		t.Fatalf("loop branch predicted %d/100", correct)
	}
}

func TestRAS(t *testing.T) {
	bp := newBpred()
	bsr := branchKind(isa.OpBSR)
	ret := branchKind(isa.OpRET)
	if !bp.predict(5, bsr, true, 20) {
		t.Fatal("BSR must always predict correctly")
	}
	if !bp.predict(30, ret, true, 6) {
		t.Fatal("RET to pushed address must hit the RAS")
	}
	if bp.predict(30, ret, true, 99) {
		t.Fatal("RET with empty RAS must mispredict")
	}
}
