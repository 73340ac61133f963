package ooo

// Allocation-free scheduling structures for the engine hot loop. The
// per-cycle and per-seq maps the engine used to carry (completion wheel,
// future-ready sets, store ordering, byte-granular alias tracking) are
// replaced here by ring-indexed calendar queues, a non-boxing binary
// min-heap, and a page-table of last-store slabs. All of them reuse their
// backing storage, so the steady-state simulation loop performs no heap
// allocation (pinned by TestSteadyStateZeroAllocs).

// seqPQ is a binary min-heap of entry seqs (oldest-first issue order). It
// replaces container/heap to avoid boxing every uint64 push into an
// interface value.
type seqPQ []uint64

func (q *seqPQ) push(v uint64) {
	h := append(*q, v)
	*q = h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (q *seqPQ) pop() uint64 {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*q = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r] < h[l] {
			m = r
		}
		if h[i] <= h[m] {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// calSlots is the completion-wheel span. It covers every latency the
// memory system produces short of a deeply queued bus (l1 + TLB + L2 +
// memory is 164 cycles); longer completions spill to the sorted overflow
// list, which stays empty in steady state.
const calSlots = 256

// calendar is a ring-indexed calendar queue: events for cycle c live in
// slot c&(calSlots-1), valid because the engine drains every slot exactly
// when its cycle arrives. Far-future events (beyond the wheel horizon) are
// kept sorted by cycle in overflow; for any target cycle they were
// necessarily scheduled before every slot-resident event of that cycle, so
// draining overflow first preserves global insertion (issue) order.
type calendar struct {
	slots    [calSlots][]uint64
	overflow []calEvent
}

type calEvent struct {
	cycle, seq uint64
}

// schedule books seq to complete at cycle (now is the current cycle;
// cycle > now always holds).
func (c *calendar) schedule(now, cycle, seq uint64) {
	if cycle-now < calSlots {
		i := cycle & (calSlots - 1)
		c.slots[i] = append(c.slots[i], seq)
		return
	}
	j := len(c.overflow)
	c.overflow = append(c.overflow, calEvent{cycle, seq})
	for j > 0 && c.overflow[j-1].cycle > cycle {
		c.overflow[j], c.overflow[j-1] = c.overflow[j-1], c.overflow[j]
		j--
	}
}

// Draining happens inline in Engine.writeback (overflow first, then the
// cycle's slot) so each completion is a direct method call.

// aliasPageShift sizes the last-store slabs (4KB of simulated bytes each).
const aliasPageShift = 12

type aliasSlab [1 << aliasPageShift]uint64

// aliasMap tracks the youngest store (seq+1) per byte address — the
// perfect-alias oracle and forwarding source. Simulated data addresses
// cluster in a handful of pages (cipher context plus session buffers), so
// a page table of dense slabs fronted by a small direct-mapped page cache
// makes both the per-store set and the per-load get map-free on the hot
// path. A single cached page is not enough: loads hitting the context
// page alternate with stores to the session buffer and thrash it. A way
// may cache a page's absence (nil slab): loads from pages no store has
// touched, such as the context and the input buffer, then skip the map too.
type aliasMap struct {
	pages map[uint64]*aliasSlab
	tag   [aliasWays]uint64
	way   [aliasWays]*aliasSlab
}

const (
	aliasWayBits = 4
	aliasWays    = 1 << aliasWayBits
)

// aliasWay picks a page's cache way with a Fibonacci hash: the context and
// session buffers sit at large power-of-two strides, which an index of the
// page's low bits would fold onto the same way.
func aliasWay(page uint64) uint64 { return page * 0x9E3779B97F4A7C15 >> (64 - aliasWayBits) }

func newAliasMap() aliasMap {
	a := aliasMap{pages: make(map[uint64]*aliasSlab)}
	for i := range a.tag {
		a.tag[i] = ^uint64(0)
	}
	return a
}

// setRange records v as the youngest store covering [addr, addr+n). The
// page lookup is done once per touched page, not once per byte — accesses
// are at most 8 bytes and almost never straddle a page.
func (a *aliasMap) setRange(addr, n, v uint64) {
	for n > 0 {
		page := addr >> aliasPageShift
		off := addr & (1<<aliasPageShift - 1)
		c := uint64(1)<<aliasPageShift - off
		if c > n {
			c = n
		}
		i := aliasWay(page)
		s := a.way[i]
		if a.tag[i] != page || s == nil {
			s = a.pages[page]
			if s == nil {
				s = new(aliasSlab)
				a.pages[page] = s
			}
			a.tag[i], a.way[i] = page, s
		}
		for j := uint64(0); j < c; j++ {
			s[off+j] = v
		}
		addr, n = addr+c, n-c
	}
}

// getMax returns the youngest store covering any byte of [addr, addr+n)
// (0 if none). It never allocates a slab.
func (a *aliasMap) getMax(addr, n uint64) uint64 {
	var dep uint64
	for n > 0 {
		page := addr >> aliasPageShift
		off := addr & (1<<aliasPageShift - 1)
		c := uint64(1)<<aliasPageShift - off
		if c > n {
			c = n
		}
		i := aliasWay(page)
		s := a.way[i]
		if a.tag[i] != page {
			s = a.pages[page]
			a.tag[i], a.way[i] = page, s
		}
		if s == nil {
			addr, n = addr+c, n-c
			continue
		}
		for j := uint64(0); j < c; j++ {
			if s[off+j] > dep {
				dep = s[off+j]
			}
		}
		addr, n = addr+c, n-c
	}
	return dep
}
