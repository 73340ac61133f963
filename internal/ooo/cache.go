package ooo

// The memory hierarchy of Section 3.2: 32k 2-way L1 I and D caches with
// 32-byte blocks (D: write-back, write-allocate, next-line prefetch),
// a unified 512k 4-way L2 with a 12-cycle hit, a 120-cycle memory round
// trip with 10-cycle bus occupancy per request, and a 32-entry 8-way DTLB
// with a 30-cycle miss penalty.

const (
	l1Sets       = 512 // 32k / (2 ways * 32B)
	l1Ways       = 2
	l2Sets       = 4096 // 512k / (4 ways * 32B)
	l2Ways       = 4
	blockShift   = 5 // 32-byte blocks
	l1HitLat     = 2
	l2HitLat     = 12
	memLat       = 120
	busOccupancy = 10

	tlbSets    = 4 // 32 entries, 8-way
	tlbWays    = 8
	pageShift  = 13 // 8KB pages
	tlbMissLat = 30
)

// setAssoc is a set-associative array with LRU replacement, tracking tags
// only (timing model; data lives in simmem). Lines carry a prefetch tag
// for the tagged next-line prefetcher.
type setAssoc struct {
	sets, ways int
	setMask    uint64 // sets-1; set counts are powers of two
	shift      uint
	tags       []uint64 // sets*ways, tag 0 = invalid (addresses start above 0)
	lru        []uint64 // access stamps
	pref       []bool   // prefetched, not yet demand-referenced
	stamp      uint64
}

func newSetAssoc(sets, ways int, shift uint) *setAssoc {
	if sets&(sets-1) != 0 {
		panic("setAssoc: sets must be a power of two")
	}
	return &setAssoc{
		sets: sets, ways: ways, setMask: uint64(sets - 1), shift: shift,
		tags: make([]uint64, sets*ways),
		lru:  make([]uint64, sets*ways),
		pref: make([]bool, sets*ways),
	}
}

// access probes for addr. On a miss with fill set, the LRU way is filled.
// asPrefetch marks the filled (or re-found) line as a prefetch; a demand
// access clears the mark and reports whether it was the first touch of a
// prefetched line (which re-arms the next-line prefetcher).
func (s *setAssoc) access(addr uint64, fill, asPrefetch bool) (hit, wasPref bool) {
	blk := addr >> s.shift
	base := int(blk&s.setMask) * s.ways
	s.stamp++
	victim, oldest := base, ^uint64(0)
	for w := 0; w < s.ways; w++ {
		i := base + w
		if s.tags[i] == blk+1 {
			s.lru[i] = s.stamp
			wasPref = s.pref[i]
			if !asPrefetch {
				s.pref[i] = false
			}
			return true, wasPref
		}
		if s.lru[i] < oldest {
			oldest, victim = s.lru[i], i
		}
	}
	if fill {
		s.tags[victim] = blk + 1
		s.lru[victim] = s.stamp
		s.pref[victim] = asPrefetch
	}
	return false, false
}

// lookup is the plain demand-access form.
func (s *setAssoc) lookup(addr uint64, fill bool) bool {
	hit, _ := s.access(addr, fill, false)
	return hit
}

// memSystem bundles the shared hierarchy. The L2 and bus are shared
// between the I and D sides.
type memSystem struct {
	il1, dl1, l2 *setAssoc
	dtlb         *setAssoc
	busFree      uint64 // next cycle the memory bus is free

	// Statistics.
	DL1Miss, L2Miss, TLBMiss, Prefetches uint64
}

func newMemSystem() *memSystem {
	return &memSystem{
		il1:  newSetAssoc(l1Sets, l1Ways, blockShift),
		dl1:  newSetAssoc(l1Sets, l1Ways, blockShift),
		l2:   newSetAssoc(l2Sets, l2Ways, blockShift),
		dtlb: newSetAssoc(tlbSets, tlbWays, pageShift),
	}
}

// misses returns the miss counters. A nil hierarchy is a perfect-memory
// machine's, which never misses.
func (m *memSystem) misses() (dl1, l2, tlb uint64) {
	if m == nil {
		return 0, 0, 0
	}
	return m.DL1Miss, m.L2Miss, m.TLBMiss
}

// busAcquire serializes main-memory requests (10-cycle occupancy each) and
// returns the added queueing delay.
func (m *memSystem) busAcquire(now uint64) uint64 {
	start := now
	if m.busFree > start {
		start = m.busFree
	}
	m.busFree = start + busOccupancy
	return start - now
}

// prefetchNext brings the line after addr into the hierarchy, marked so
// its first demand use re-arms the prefetcher (tagged next-line prefetch).
func (m *memSystem) prefetchNext(addr uint64) {
	next := addr + 1<<blockShift
	if hit, _ := m.dl1.access(next, true, true); !hit {
		m.Prefetches++
		m.l2.access(next, true, true)
	}
}

// dataAccess returns the latency of a data access starting at cycle now,
// with tagged next-line prefetch: both a demand miss and the first use of
// a prefetched line fetch the following block.
func (m *memSystem) dataAccess(addr uint64, now uint64) uint64 {
	lat := uint64(l1HitLat)
	if !m.dtlb.lookup(addr, true) {
		m.TLBMiss++
		lat += tlbMissLat
	}
	if hit, wasPref := m.dl1.access(addr, true, false); hit {
		if wasPref {
			m.prefetchNext(addr)
		}
		return lat
	}
	m.DL1Miss++
	m.prefetchNext(addr)
	if m.l2.lookup(addr, true) {
		return lat + l2HitLat
	}
	m.L2Miss++
	return lat + l2HitLat + memLat + m.busAcquire(now+lat)
}

// instAccess returns the latency of fetching the block containing an
// instruction address.
func (m *memSystem) instAccess(addr uint64, now uint64) uint64 {
	if m.il1.lookup(addr, true) {
		return 0 // overlapped with the fetch pipeline
	}
	if m.l2.lookup(addr, true) {
		return l2HitLat
	}
	m.L2Miss++
	return l2HitLat + memLat + m.busAcquire(now)
}
