package ooo

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"cryptoarch/internal/check"
	"cryptoarch/internal/core"
	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/metrics"
)

// Stream supplies the committed-path dynamic instruction stream as packed
// records: each emu.TraceRec carries only an instruction's PC, effective
// address and branch outcome, and the engine recovers everything static
// from Program. Replay, resume and live streams all feed the same fetch
// loop.
type Stream interface {
	// Program is the static program the records' Idx fields index.
	Program() *isa.Program
	// Next returns the next non-empty batch of retired instructions in
	// commit order, or false at the end. The batch stays valid until the
	// following Next call; the engine never writes it.
	Next() ([]emu.TraceRec, bool)
}

// MachineStream adapts the functional emulator to a Stream: it steps the
// machine emu.LiveBatchRecs instructions at a time, packing each record
// the way emu.Record does.
type MachineStream struct {
	M   *emu.Machine
	buf []emu.TraceRec
}

// Program implements Stream.
func (s *MachineStream) Program() *isa.Program { return s.M.Prog }

// Next implements Stream.
func (s *MachineStream) Next() ([]emu.TraceRec, bool) {
	if s.buf == nil {
		s.buf = make([]emu.TraceRec, 0, emu.LiveBatchRecs)
	}
	s.buf = s.M.StepPacked(s.buf[:0])
	return s.buf, len(s.buf) > 0
}

// Err surfaces a terminal machine fault (instruction budget, runaway PC)
// so Run fails instead of timing a silently truncated stream.
func (s *MachineStream) Err() error { return s.M.Err() }

// SizedStream is optionally implemented by streams that know in advance
// how many instructions they will deliver (e.g. emu.ReplayStream). The
// engine uses the count to pre-size the in-flight ring for
// infinite-window machines, which otherwise grow it by repeated doubling.
type SizedStream interface {
	Stream
	InstCount() int
}

// CodeBase is the simulated address of instruction index 0 (instruction
// addresses feed the I-cache model).
const CodeBase = 0x4000

// Stats summarizes one timing-simulation run.
type Stats struct {
	Config       string
	Cycles       uint64
	Instructions uint64
	ClassCounts  [isa.NumClasses]uint64
	Branches     uint64
	Mispredicts  uint64
	Loads        uint64
	Stores       uint64
	SboxAccesses uint64
	SboxHits     uint64
	DL1Misses    uint64
	L2Misses     uint64
	TLBMisses    uint64

	// Stalls attributes every commit slot (Cycles*IssueWidth of them on
	// finite-width machines) to one cause; see stats.go.
	Stalls StallBreakdown
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

const (
	stWaiting uint8 = iota // register or memory dependencies outstanding
	stReady                // queued for issue
	stIssued
	stDone
)

// entry is one reorder-buffer slot. The layout is packed to one 64-byte
// cache line and pointer-free: fetch rewrites the whole struct once per
// instruction and commit walks the ring in order, so entry size is raw
// bandwidth in the hottest loops, and rings of tens of MB are never
// scanned by the garbage collector. Static facts live in the engine's
// micro-op table, indexed by idx. Per-entry cycle stamps are uint32 — Run
// aborts before the global cycle counter could truncate.
type entry struct {
	seq  uint64
	addr uint64
	// ordinal is a store's 1-based position in store order, or the number
	// of stores whose addresses a load must know before it may issue.
	ordinal uint64

	idx int32
	// dataDist is, for a store, how far back (in seqs) its data producer
	// was when the store dispatched; 0 if the data was already available.
	dataDist uint32
	// Waiting dependents as a pooled intrusive list (engine.consPool,
	// 1-based node indices; 0 = none). The zero value is an empty list, so
	// ring growth and entry recycling need no re-initialization.
	consHead, consTail int32

	fetchCycle    uint32
	dispatchCycle uint32
	readyCycle    uint32
	doneCycle     uint32

	// pendingDeps counts unfinished producers: at most three register
	// sources plus, for a load, a store and that store's data producer.
	pendingDeps     int8
	state           uint8
	kind            uint8 // FU kind, copied from the micro-op at fetch
	isLoad, isStore bool  // copied from the micro-op at fetch
	memBlocked      bool  // waiting on store-address ordering
	memLevel        uint8 // deepest miss level of this entry's data access
	issueDelayed    bool  // issued later than its ready cycle (passed over)
}

// Data-access miss levels recorded per entry (deepest wins).
const (
	memHit uint8 = iota
	memMissDL1
	memMissTLB
	memMissL2
)

// Resource kinds for the per-kind ready queues.
const (
	kindNone = iota // no functional unit (NOP, HALT, SBOXSYNC)
	kindIALU
	kindMul32 // one multiplier lane
	kindMul64 // two multiplier lanes
	kindRot
	kindDPort
	kindSbox0 // + architectural table number
	fuKinds   = kindSbox0 + 16
)

// consNode is one element of a pooled consumer list (entry.consHead).
// Nodes for every in-flight list live in Engine.consPool; freed lists are
// spliced whole onto a freelist, so after warm-up the simulation allocates
// no per-dependence memory — the fix for the dataflow model, whose 2^18
// in-flight entries used to hold a heap slice each.
type consNode struct {
	seq  uint64
	next int32
}

type sboxCache struct {
	tag    uint64
	valid  uint32 // 32 sector-valid bits
	hasTag bool
}

// Engine runs the timing model over one instruction stream.
type Engine struct {
	cfg  Config
	src  Stream
	code []isa.Inst // src.Program().Code, for tracer events
	uops []uop      // per-PC micro-op table (decode.go)
	mem  *memSystem // nil under PerfectMem
	bp   *bpred

	stats Stats
	cycle uint64

	// Reorder buffer as a growable ring indexed by seq%cap.
	rob     []entry
	headSeq uint64 // oldest in-flight seq
	tailSeq uint64 // next seq to allocate
	memOps  int    // in-flight loads/stores (LSQ occupancy)

	regProducer [isa.NumRegs]uint64 // seq+1 of latest producer; 0 = none

	// Consumer-list node pool. Node i lives at consPool[i-1] (1-based so
	// index 0 means "none"); consFree heads the freelist.
	consPool []consNode
	consFree int32

	// Store ordering. Issued-but-not-yet-contiguous store ordinals live in
	// a ring bitset indexed ordinal&(len-1); in-flight ordinals span
	// (storeKnown, storeCount], bounded by the window, so the ring grows
	// like the ROB and is then reused forever.
	storeCount  uint64 // stores dispatched
	storeIssued []bool // ring bitset of issued store ordinals
	storeKnown  uint64 // contiguous prefix of stores with known address

	// Loads blocked on storeKnown. Dispatch pushes in seq order and their
	// required store counts are monotone in seq, so a FIFO (head index into
	// a reused slice) replaces the old heap+needs-map pair; each waiter's
	// requirement is its entry's needStores.
	memWaiters  []uint64
	memWaitHead int

	// Last store per byte address (perfect-alias oracle / forwarding).
	lastStoreByte aliasMap

	// Event wheel: completions per cycle, ring-indexed with overflow.
	completions calendar

	// Ready instructions are queued per resource kind (oldest-first), so
	// issue does O(issued) work per cycle even with an unbounded window:
	// a full resource pool blocks exactly its own queue. readyMask has bit
	// k set iff readyQ[k] is non-empty, so issue scans only live queues.
	readyQ    [fuKinds]seqPQ
	readyMask uint32

	// Fetch state. The fetch/decode queue is the ROB seqs
	// [dispatchSeq, tailSeq): fetched in order, dispatched in order.
	dispatchSeq          uint64 // next seq to dispatch
	fetchStallTil        uint64
	fetchStallBranch     bool // fetchStallTil is branch recovery, not I-cache
	fetchBlockedOnBranch bool
	blockedBranchSeq     uint64
	lastFetchLine        uint64
	streamDone           bool
	// recs is the stream's current batch and recPos the next record to
	// fetch; the batch is consumed before Next is called again. peeked
	// marks recs[recPos] as examined but not fetched (an I-cache miss
	// stopped fetch on it) — the front end's next instruction for blamePC.
	recs   []emu.TraceRec
	recPos int
	peeked bool

	sboxCaches []sboxCache

	// Per-cycle resource usage, per functional-unit pool (see fuPool).
	resCycle uint64
	poolCap  [fuKinds]int32
	poolUsed [fuKinds]int32

	// Observability (see stats.go, trace.go, profile.go). The tracer and
	// profile are nil unless attached; accounting reads pipeline state but
	// never changes it.
	tracer           Tracer
	commitsThisCycle int
	issuedThisCycle  int
	windowFullCycle  uint64 // last cycle dispatch was blocked by a full window

	// Per-PC profiling state (profile.go). profPCs is nil unless a profile
	// is attached; profSlots additionally gates slot charging (finite
	// widths only). commitIdxs buffers this cycle's retired PCs so account
	// can charge their commit slots — charging in commit itself would
	// overcount: the run's final cycle commits but is never accounted.
	profPCs     []PCProfile
	profSlots   bool
	commitIdxs  []int32
	lastRetired int32 // PC of the most recently retired instruction

	// Warmup/measure epoch state (warmup.go). warmupLeft counts down at
	// dispatch; when it hits zero the current counters become the base
	// subtracted from the final stats and profile, and warmupSeq holds the
	// last warmup instruction until its commit takes the cycle and
	// commit-slot bases (noSeq otherwise).
	warmupLeft     uint64
	warmupSeq      uint64
	warmupBase     Stats
	warmupBaseSet  bool
	warmupProfBase []PCProfile

	// Checked-mode rotating cursor over large windows (invariants.go).
	checkCursor uint64

	// Telemetry registry (metrics.go); nil unless attached. Touched only
	// at run completion, never in the per-cycle loop.
	metrics *metrics.Registry
}

// NewEngine creates a timing engine for cfg over src.
func NewEngine(cfg Config, src Stream) *Engine {
	code := src.Program().Code
	e := &Engine{
		cfg:             cfg,
		src:             src,
		code:            code,
		uops:            decode(code, &cfg),
		bp:              newBpred(),
		storeIssued:     make([]bool, 256),
		lastStoreByte:   newAliasMap(),
		sboxCaches:      make([]sboxCache, cfg.NumSboxCaches),
		windowFullCycle: ^uint64(0),
		warmupSeq:       noSeq,
	}
	e.stats.Config = cfg.Name
	// Under perfect memory no access consults the hierarchy, so the engine
	// builds none: ~310 KB of cache and TLB arrays per run.
	if !cfg.PerfectMem {
		e.mem = newMemSystem()
	}
	e.initPools()
	return e
}

// Program is the static program the engine's stream indexes.
func (e *Engine) Program() *isa.Program { return e.src.Program() }

// initLoop takes the reorder-buffer ring and consumer-node pool the cycle
// loop runs on. Run calls it only when it enters the loop, so a run timed
// by the program-order pass (progorder.go) takes neither; a second call
// is a no-op.
func (e *Engine) initLoop() {
	if e.rob != nil {
		return
	}
	// The ring holds both the fetch queue and the window; size it for the
	// worst case. An infinite window normally starts small and doubles on
	// demand, but when the stream knows its length (replay) the ring is
	// sized once up front, eliminating the growth churn that dominated the
	// dataflow model's allocation profile.
	capHint := e.cfg.WindowSize + e.fetchQueueCap() + 64
	if inf(e.cfg.WindowSize) {
		if ss, ok := e.src.(SizedStream); ok {
			n := ss.InstCount()
			if n > maxWindow {
				n = maxWindow
			}
			capHint = n + e.fetchQueueCap() + 64
		}
	}
	e.rob = getRing(nextPow2(capHint))
	e.consPool = getConsPool()
}

// maxWindow bounds "infinite" windows: a quarter-million in-flight
// instructions is far beyond any dependence distance in these kernels, and
// it keeps the dataflow-model memory footprint bounded.
const maxWindow = 1 << 18

// effWindow is the window size with the infinite case bounded.
func (e *Engine) effWindow() int {
	if inf(e.cfg.WindowSize) {
		return maxWindow
	}
	return e.cfg.WindowSize
}

// fetchQueueCap bounds the fetch/decode queue.
func (e *Engine) fetchQueueCap() int {
	if inf(e.cfg.FetchWidth) || inf(e.cfg.FetchBlocksPerCycle) {
		return 4096
	}
	if c := 4 * e.cfg.FetchWidth * e.cfg.FetchBlocksPerCycle; c > 16 {
		return c
	}
	return 16
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ROB rings are recycled between runs without re-zeroing: every entry is
// fully initialized by fetch before any other stage reads it (all reads
// go through seqs that fetch already allocated), so stale contents are
// never observed. Zeroing mattered — the dataflow model's ring is tens of
// MB and used to be cleared on every engine construction. The freelist is
// bounded by total retained bytes, keeping at most a few of the largest
// rings alive.
var (
	ringMu    sync.Mutex
	ringFree  = map[int][][]entry{}
	ringBytes int
)

const ringPoolBudget = 128 << 20

func entryBytes(n int) int { return n * int(unsafe.Sizeof(entry{})) }

// Consumer-node pools are recycled across runs like the rings: the slice
// is reset to length zero, and every node is fully written by addConsumer
// before it is read, so stale contents are never observed.
const consPoolBudget = 64 << 20

var (
	consMu    sync.Mutex
	consFreeL [][]consNode
	consBytes int
)

func consNodeBytes(n int) int { return n * int(unsafe.Sizeof(consNode{})) }

func getConsPool() []consNode {
	consMu.Lock()
	if n := len(consFreeL); n > 0 {
		b := consFreeL[n-1]
		consFreeL = consFreeL[:n-1]
		consBytes -= consNodeBytes(cap(b))
		consMu.Unlock()
		return b[:0]
	}
	consMu.Unlock()
	return nil
}

func putConsPool(b []consNode) {
	if cap(b) == 0 {
		return
	}
	consMu.Lock()
	if consBytes+consNodeBytes(cap(b)) <= consPoolBudget {
		consFreeL = append(consFreeL, b)
		consBytes += consNodeBytes(cap(b))
	}
	consMu.Unlock()
}

func getRing(n int) []entry {
	ringMu.Lock()
	if l := ringFree[n]; len(l) > 0 {
		r := l[len(l)-1]
		ringFree[n] = l[:len(l)-1]
		ringBytes -= entryBytes(n)
		ringMu.Unlock()
		return r
	}
	ringMu.Unlock()
	return make([]entry, n)
}

func putRing(r []entry) {
	n := len(r)
	if n == 0 {
		return
	}
	ringMu.Lock()
	if ringBytes+entryBytes(n) <= ringPoolBudget {
		ringFree[n] = append(ringFree[n], r)
		ringBytes += entryBytes(n)
	}
	ringMu.Unlock()
}

func (e *Engine) at(seq uint64) *entry { return &e.rob[seq&uint64(len(e.rob)-1)] }

// fqLen is the fetch/decode queue occupancy.
func (e *Engine) fqLen() int { return int(e.tailSeq - e.dispatchSeq) }

// windowOcc is the number of dispatched-but-uncommitted instructions.
func (e *Engine) windowOcc() int {
	return int(e.tailSeq-e.headSeq) - e.fqLen()
}

// ensureRing guarantees space for one more in-flight entry.
func (e *Engine) ensureRing() {
	if e.tailSeq-e.headSeq == uint64(len(e.rob)) {
		e.growROB()
	}
}

func (e *Engine) growROB() {
	old := e.rob
	e.rob = getRing(len(old) * 2)
	for s := e.headSeq; s < e.tailSeq; s++ {
		e.rob[s&uint64(len(e.rob)-1)] = old[s&uint64(len(old)-1)]
	}
	putRing(old)
}

// growStoreRing doubles the issued-store-ordinal ring, re-placing the
// in-flight ordinals under the new mask.
func (e *Engine) growStoreRing() {
	old := e.storeIssued
	e.storeIssued = make([]bool, len(old)*2)
	for o := e.storeKnown + 1; o <= e.storeCount; o++ {
		e.storeIssued[o&uint64(len(e.storeIssued)-1)] = old[o&uint64(len(old)-1)]
	}
}

// WarmData pre-fills the data-cache hierarchy and TLB for a region, as if
// the key-setup code (which writes the whole cipher context) had just run.
// Without this, one-time compulsory misses on the S-box tables would
// dominate short sessions, which is not what the paper measures. Under
// perfect memory there is nothing to warm.
func (e *Engine) WarmData(addr uint64, n int) {
	if e.mem == nil {
		return
	}
	end := addr + uint64(n)
	for a := addr &^ ((1 << blockShift) - 1); a < end; a += 1 << blockShift {
		e.mem.dl1.lookup(a, true)
		e.mem.l2.lookup(a, true)
	}
	for a := addr &^ ((1 << pageShift) - 1); a < end; a += 1 << pageShift {
		e.mem.dtlb.lookup(a, true)
	}
}

// WarmCode pre-fills the instruction cache for a program of n
// instructions, as if the kernel had already run (key setup and the
// session-establishment path execute this code before the measured
// session). Under perfect memory there is nothing to warm.
func (e *Engine) WarmCode(n int) {
	if e.mem == nil {
		return
	}
	end := CodeBase + uint64(n)*4
	for a := uint64(CodeBase); a < end; a += 1 << blockShift {
		e.mem.il1.lookup(a, true)
		e.mem.l2.lookup(a, true)
	}
}

// Run drives the model to completion and returns the statistics. When a
// metrics registry is attached (SetMetrics), run totals are accumulated
// onto it afterwards; the simulated statistics are identical either way.
func (e *Engine) Run() (*Stats, error) {
	if e.metrics == nil {
		return e.run()
	}
	return e.runMetered()
}

// run times the stream: by the program-order pass when the config and
// the attached observers allow it, otherwise by the cycle loop. Both
// return identical Stats and errors.
func (e *Engine) run() (*Stats, error) {
	if e.programOrder() {
		return e.runProgramOrder()
	}
	return e.runCycles()
}

// runCycles is the cycle loop: it steps every pipeline stage once per
// simulated cycle until the stream has drained.
func (e *Engine) runCycles() (*Stats, error) {
	e.initLoop()
	const idleLimit = 1 << 22
	var idle uint64
	for {
		progress := e.step()
		if e.streamDone && e.fqLen() == 0 && e.headSeq == e.tailSeq {
			break
		}
		if progress {
			idle = 0
		} else if idle++; idle > idleLimit {
			return nil, fmt.Errorf("ooo: %s deadlocked at cycle %d (head %d tail %d)",
				e.cfg.Name, e.cycle, e.headSeq, e.tailSeq)
		}
		if e.cycle>>32 != 0 {
			// Per-entry cycle stamps are uint32; no modeled run comes
			// within orders of magnitude of this.
			return nil, fmt.Errorf("ooo: %s exceeded 2^32 cycles", e.cfg.Name)
		}
		// Charge this cycle's commit slots. The final (break) iteration is
		// not a counted cycle, so accounted cycles == Stats.Cycles and the
		// buckets sum to exactly Cycles*IssueWidth.
		e.account()
		e.cycle++
		if e.headSeq > e.warmupSeq {
			e.closeCommitSide()
		}
		if e.cfg.Checked {
			if err := e.CheckInvariants(); err != nil {
				return nil, fmt.Errorf("ooo: %s: %w", e.cfg.Name, err)
			}
		}
		if e.cfg.CycleBudget != 0 && e.cycle >= e.cfg.CycleBudget {
			return nil, &check.BudgetError{
				Resource: "cycles", Subject: "model " + e.cfg.Name,
				Limit: e.cfg.CycleBudget, Used: e.cycle,
			}
		}
	}
	// A stream that ends because its machine faulted (instruction budget,
	// runaway PC) must fail the run, not silently time the prefix.
	if f, ok := e.src.(interface{ Err() error }); ok {
		if err := f.Err(); err != nil {
			return nil, fmt.Errorf("ooo: %s: source stream: %w", e.cfg.Name, err)
		}
	}
	if e.cfg.Checked {
		if err := e.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("ooo: %s: %w", e.cfg.Name, err)
		}
	}
	e.stats.Cycles = e.cycle
	e.stats.DL1Misses, e.stats.L2Misses, e.stats.TLBMisses = e.mem.misses()
	// Discard the warmup epoch, if one was armed and closed. This happens
	// after the final invariant check: checked mode validates cumulative
	// counters, and the delta preserves the slot identity on its own.
	e.applyWarmup()
	// The run is complete: recycle the ring and node pool for the next
	// engine.
	putRing(e.rob)
	e.rob = nil
	putConsPool(e.consPool)
	e.consPool = nil
	// Hand out a copy: a pointer into the engine would keep the whole
	// engine — memory model, alias slabs, queues and the stream with its
	// trace — reachable for as long as the caller holds the result.
	st := e.stats
	return &st, nil
}

// step executes one cycle; reports whether any state changed.
func (e *Engine) step() bool {
	progress := false
	if e.writeback() {
		progress = true
	}
	if e.commit() {
		progress = true
	}
	if e.issue() {
		progress = true
	}
	if e.dispatch() {
		progress = true
	}
	if e.fetch() {
		progress = true
	}
	return progress
}

// writeback processes completions scheduled for this cycle: wakes register
// consumers, advances store ordering, releases branch stalls. The
// calendar walk is inlined here so every completion is a direct call —
// this runs once per simulated instruction. Overflow drains first; see
// the ordering argument on the calendar type.
func (e *Engine) writeback() bool {
	c := &e.completions
	any := false
	if len(c.overflow) > 0 && c.overflow[0].cycle == e.cycle {
		n := 0
		for n < len(c.overflow) && c.overflow[n].cycle == e.cycle {
			e.complete(c.overflow[n].seq)
			n++
		}
		copy(c.overflow, c.overflow[n:])
		c.overflow = c.overflow[:len(c.overflow)-n]
		any = true
	}
	slot := &c.slots[e.cycle&(calSlots-1)]
	if len(*slot) > 0 {
		for _, s := range *slot {
			e.complete(s)
		}
		*slot = (*slot)[:0]
		any = true
	}
	return any
}

// complete finishes one instruction: wakes register consumers, releases a
// blocked branch. The consumer list is spliced back onto the node
// freelist in one step, so completion frees no memory.
func (e *Engine) complete(s uint64) {
	en := e.at(s)
	en.state = stDone
	if e.tracer != nil {
		e.tracer.Event(TraceWriteback, e.cycle, s, int(en.idx), &e.code[en.idx])
	}
	rob, mask := e.rob, uint64(len(e.rob)-1)
	pool := e.consPool
	for i := en.consHead; i != 0; i = pool[i-1].next {
		c := pool[i-1].seq
		ce := &rob[c&mask]
		if ce.seq != c || ce.state != stWaiting {
			continue
		}
		ce.pendingDeps--
		if ce.pendingDeps == 0 && !ce.memBlocked {
			e.makeReady(ce)
		}
	}
	if en.consHead != 0 {
		e.consPool[en.consTail-1].next = e.consFree
		e.consFree = en.consHead
		en.consHead, en.consTail = 0, 0
	}
	if e.fetchBlockedOnBranch && e.blockedBranchSeq == s {
		e.fetchBlockedOnBranch = false
		resume := e.cycle + 1
		if min := uint64(en.fetchCycle) + uint64(e.cfg.BranchPenalty); min > resume {
			resume = min
		}
		if resume > e.fetchStallTil {
			e.fetchStallTil = resume
			e.fetchStallBranch = true
		}
	}
}

// addConsumer appends a waiting dependent to pe's consumer list. FIFO
// order is preserved (tail append): wakeup order feeds the ready queues
// and is therefore visible in the golden statistics.
func (e *Engine) addConsumer(pe *entry, seq uint64) {
	i := e.consFree
	if i == 0 {
		e.consPool = append(e.consPool, consNode{})
		i = int32(len(e.consPool))
	} else {
		e.consFree = e.consPool[i-1].next
	}
	e.consPool[i-1] = consNode{seq: seq}
	if pe.consTail == 0 {
		pe.consHead = i
	} else {
		e.consPool[pe.consTail-1].next = i
	}
	pe.consTail = i
}

// queueReady inserts a ready entry into its per-kind issue queue.
func (e *Engine) queueReady(k int, seq uint64) {
	e.readyQ[k].push(seq)
	e.readyMask |= 1 << uint(k)
}

// makeReady marks an entry ready and queues it for issue. An entry
// readied at its own dispatch is ready the cycle after; it can be queued
// at once because dispatch runs after issue, so the earliest issue stage
// to see it is the next cycle's.
func (e *Engine) makeReady(en *entry) {
	en.state = stReady
	en.readyCycle = uint32(max(e.cycle, uint64(en.dispatchCycle)+1))
	e.queueReady(int(en.kind), en.seq)
}

// commit retires completed instructions in order.
func (e *Engine) commit() bool {
	width := e.cfg.IssueWidth
	n := 0
	if e.profSlots {
		e.commitIdxs = e.commitIdxs[:0]
	}
	rob, mask := e.rob, uint64(len(e.rob)-1)
	for e.headSeq < e.tailSeq {
		en := &rob[e.headSeq&mask]
		if en.state != stDone || uint64(en.doneCycle) >= e.cycle {
			break
		}
		if !inf(width) && n >= width {
			break
		}
		if en.isLoad || en.isStore {
			e.memOps--
		}
		if e.tracer != nil {
			e.tracer.Event(TraceCommit, e.cycle, en.seq, int(en.idx), &e.code[en.idx])
		}
		if e.profPCs != nil {
			e.profPCs[en.idx].Retired++
			e.lastRetired = en.idx
			if e.profSlots {
				e.commitIdxs = append(e.commitIdxs, en.idx)
			}
		}
		e.headSeq++
		n++
	}
	e.commitsThisCycle = n
	return n > 0
}

// account charges this cycle's commit slots: each retiring instruction
// uses one; every unused slot is blamed on the single cause observed at
// the reorder-buffer head (or on the front end when the window is empty).
func (e *Engine) account() {
	width := e.cfg.IssueWidth
	if inf(width) {
		return // slot attribution is defined only for finite widths
	}
	sb := &e.stats.Stalls
	n := uint64(e.commitsThisCycle)
	sb[StallCommit] += n
	if e.profSlots {
		for _, idx := range e.commitIdxs {
			e.profPCs[idx].Slots[StallCommit]++
		}
	}
	if n >= uint64(width) {
		return
	}
	cause := e.headBlame()
	lost := uint64(width) - n
	sb[cause] += lost
	if e.profSlots {
		e.profPCs[e.blamePC()].Slots[cause] += lost
	}
}

// headBlame picks the stall cause for this cycle's unused commit slots.
func (e *Engine) headBlame() StallCause {
	if e.headSeq == e.tailSeq {
		// Window empty: the front end starves commit.
		switch {
		case e.fetchBlockedOnBranch:
			return StallBranch
		case e.cycle < e.fetchStallTil:
			if e.fetchStallBranch {
				return StallBranch
			}
			return StallICache
		case e.streamDone && e.fqLen() == 0:
			return StallDrain
		default:
			return StallIFetch // fetched but not yet decoded/dispatched
		}
	}
	if e.dispatchSeq == e.headSeq {
		return StallIFetch // oldest in flight is fetched, not yet dispatched
	}
	en := e.at(e.headSeq)
	switch {
	case en.state == stWaiting && en.memBlocked:
		return StallAlias
	case en.state == stReady && uint64(en.readyCycle) > e.cycle:
		return StallIFetch // dispatch/rename fill: became ready too late
	case en.state == stReady:
		// Ready but not issued this cycle. Oldest-first selection means
		// the head is passed over only when its own pool is saturated or
		// the whole issue width went to it being unreachable.
		if k := int(en.kind); !e.kindHasRoom(k) {
			return fuStall(k)
		}
		return StallIssue
	}
	// Executing (or completing this cycle). In order of evidence:
	// a head that was passed over after becoming ready lost those cycles
	// to issue bandwidth or to the pool it competes for (the paper's
	// Issue/Res bottlenecks); a head sitting on a cache or TLB miss is a
	// memory stall; a machine whose dispatch is blocked on a full window
	// is either issue-bandwidth saturated (the issue stage consumed its
	// whole width this cycle — more window would not have helped) or
	// genuinely window-limited (a full window still could not feed the
	// issue width); anything else is the head's own execution latency.
	if en.issueDelayed {
		if k := int(en.kind); !e.kindHasRoom(k) {
			return fuStall(k)
		}
		return StallIssue
	}
	switch en.memLevel {
	case memMissL2:
		return StallL2Miss
	case memMissTLB:
		return StallTLBMiss
	case memMissDL1:
		return StallDL1Miss
	}
	if e.windowFullCycle == e.cycle {
		if e.issuedThisCycle >= e.cfg.IssueWidth {
			return StallIssue
		}
		return StallWindow
	}
	return StallExec
}

// fuStall maps a saturated resource kind to its stall bucket.
func fuStall(k int) StallCause {
	switch {
	case k == kindIALU:
		return StallIALU
	case k == kindMul32 || k == kindMul64:
		return StallMult
	case k == kindRot:
		return StallRot
	case k == kindDPort:
		return StallDPort
	case k >= kindSbox0:
		return StallSboxPort
	}
	return StallIssue // kindNone: only issue width can hold it back
}

// Functional-unit pools. Every kind issues to one pool and takes one unit
// of it per cycle, except that a 64-bit multiply takes both lanes of the
// multiplier pool it shares with 32-bit multiplies. Pools are indexed by
// their primary kind; kindNone's pool never fills.
var (
	fuPool [fuKinds]uint8
	fuCost [fuKinds]int32
)

func init() {
	for k := range fuPool {
		fuPool[k], fuCost[k] = uint8(k), 1
	}
	fuPool[kindMul64], fuCost[kindMul64] = kindMul32, 2
}

// initPools sets each pool's per-cycle capacity from the config.
func (e *Engine) initPools() {
	units := func(n int) int32 {
		if inf(n) {
			return math.MaxInt32
		}
		return int32(n)
	}
	c := &e.cfg
	e.poolCap[kindNone] = math.MaxInt32
	e.poolCap[kindIALU] = units(c.NumIALU)
	e.poolCap[kindMul32] = units(c.MulLanes)
	e.poolCap[kindRot] = units(c.NumRot)
	e.poolCap[kindDPort] = units(c.DCachePorts)
	for k := kindSbox0; k < fuKinds; k++ {
		e.poolCap[k] = units(c.SboxCachePorts)
	}
}

// resetRes clears the per-cycle resource counters.
func (e *Engine) resetRes() {
	if e.resCycle == e.cycle {
		return
	}
	e.resCycle = e.cycle
	e.poolUsed = [fuKinds]int32{}
}

// hasRoom reports whether the pool behind kind k can accept one more issue
// this cycle; the counters must already be reset for this cycle.
func (e *Engine) hasRoom(k int) bool {
	p := fuPool[k]
	return e.poolUsed[p]+fuCost[k] <= e.poolCap[p]
}

// kindHasRoom is hasRoom for callers outside issue.
func (e *Engine) kindHasRoom(k int) bool {
	e.resetRes()
	return e.hasRoom(k)
}

// latency returns the execution latency of an issued entry, consulting the
// memory system for loads/SBOX accesses.
func (e *Engine) latency(en *entry, u *uop) uint64 {
	switch u.acc {
	case accSbox:
		e.stats.SboxAccesses++
		return e.sboxAccess(en, u.table)
	case accSboxDPort:
		e.stats.SboxAccesses++
		if e.cfg.PerfectMem {
			return core.LatSboxDCache
		}
		return e.dataAccessClassified(en)
	case accLoad:
		if e.cfg.PerfectMem {
			return core.LatLoadAgen + core.LatDCacheAccess
		}
		return core.LatLoadAgen + e.dataAccessClassified(en)
	case accStore:
		if !e.cfg.PerfectMem {
			e.mem.dataAccess(en.addr, e.cycle) // allocate/dirty the line
		}
		return 1
	}
	return uint64(u.lat)
}

// dataAccessClassified performs a data-hierarchy access and records the
// deepest level the access missed at on the entry, for stall attribution.
func (e *Engine) dataAccessClassified(en *entry) uint64 {
	d0, l0, t0 := e.mem.DL1Miss, e.mem.L2Miss, e.mem.TLBMiss
	lat := e.mem.dataAccess(en.addr, e.cycle)
	switch {
	case e.mem.L2Miss > l0:
		en.memLevel = memMissL2
	case e.mem.TLBMiss > t0:
		en.memLevel = memMissTLB
	case e.mem.DL1Miss > d0:
		en.memLevel = memMissDL1
	}
	return lat
}

// sboxAccess models the dedicated SBox caches: single-tag sector caches
// that demand-fetch 32-byte sectors from the data cache.
func (e *Engine) sboxAccess(en *entry, table uint8) uint64 {
	if e.cfg.PerfectMem {
		e.stats.SboxHits++
		return core.LatSboxCache
	}
	c := &e.sboxCaches[table]
	base := en.addr & core.SboxAlignMask
	if !c.hasTag || c.tag != base {
		c.tag, c.hasTag, c.valid = base, true, 0
	}
	sector := uint32(1) << ((en.addr >> blockShift) & 31)
	if c.valid&sector != 0 {
		e.stats.SboxHits++
		return core.LatSboxCache
	}
	c.valid |= sector
	return core.LatSboxCache + e.dataAccessClassified(en)
}

// issue selects ready entries oldest-first across the per-kind queues,
// subject to issue width and functional-unit availability. A saturated
// pool stops only its own queue, so per-cycle work is O(issued), even
// when an infinite window keeps hundreds of thousands of instructions in
// flight.
func (e *Engine) issue() bool {
	width := e.cfg.IssueWidth
	issued := 0
	rob, rmask := e.rob, uint64(len(e.rob)-1)
	uops := e.uops
	e.resetRes()
	for {
		if !inf(width) && issued >= width {
			break
		}
		best := -1
		var bestSeq uint64
		for m := e.readyMask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros32(m)
			if !e.hasRoom(k) {
				continue
			}
			if best == -1 || e.readyQ[k][0] < bestSeq {
				best, bestSeq = k, e.readyQ[k][0]
			}
		}
		if best == -1 {
			break
		}
		e.readyQ[best].pop()
		if len(e.readyQ[best]) == 0 {
			e.readyMask &^= 1 << uint(best)
		}
		en := &rob[bestSeq&rmask]
		u := &uops[en.idx]
		e.poolUsed[fuPool[best]] += fuCost[best]
		en.state = stIssued
		en.issueDelayed = e.cycle > uint64(en.readyCycle)
		lat := e.latency(en, u)
		if e.profPCs != nil {
			e.profPCs[en.idx].ExecCycles += lat
		}
		en.doneCycle = uint32(e.cycle + lat)
		e.completions.schedule(e.cycle, uint64(en.doneCycle), bestSeq)
		issued++
		if e.tracer != nil {
			e.tracer.Event(TraceIssue, e.cycle, bestSeq, int(en.idx), &e.code[en.idx])
		}
		if en.isStore {
			e.storeIssued[en.ordinal&uint64(len(e.storeIssued)-1)] = true
			e.advanceStoreKnown()
		}
		if u.sync {
			for i := range e.sboxCaches {
				e.sboxCaches[i].valid = 0
			}
		}
	}
	e.issuedThisCycle = issued
	return issued > 0
}

// advanceStoreKnown extends the contiguous prefix of stores whose
// addresses are known and wakes loads blocked on it.
func (e *Engine) advanceStoreKnown() {
	mask := uint64(len(e.storeIssued) - 1)
	for e.storeIssued[(e.storeKnown+1)&mask] {
		e.storeIssued[(e.storeKnown+1)&mask] = false
		e.storeKnown++
	}
	rob, rmask := e.rob, uint64(len(e.rob)-1)
	for e.memWaitHead < len(e.memWaiters) {
		s := e.memWaiters[e.memWaitHead]
		en := &rob[s&rmask]
		if en.seq == s && en.ordinal > e.storeKnown {
			// Waiters arrive in seq order with monotone requirements, so
			// the first unsatisfied one blocks the rest.
			break
		}
		e.memWaitHead++
		if en.seq != s {
			continue
		}
		en.memBlocked = false
		if en.pendingDeps == 0 && en.state == stWaiting {
			e.makeReady(en)
		}
	}
	if e.memWaitHead == len(e.memWaiters) {
		e.memWaiters = e.memWaiters[:0]
		e.memWaitHead = 0
	}
}

// dispatch moves fetched instructions into the window.
func (e *Engine) dispatch() bool {
	width := e.cfg.IssueWidth
	effW := e.effWindow()
	rob, rmask := e.rob, uint64(len(e.rob)-1)
	n := 0
	for e.dispatchSeq != e.tailSeq {
		if !inf(width) && n >= width {
			break
		}
		if e.windowOcc() >= effW {
			e.windowFullCycle = e.cycle
			break
		}
		en := &rob[e.dispatchSeq&rmask]
		if uint64(en.fetchCycle) >= e.cycle {
			break // fetched this cycle; decodes next cycle
		}
		if en.isLoad || en.isStore {
			if !inf(e.cfg.LSQSize) && e.memOps >= e.cfg.LSQSize {
				break
			}
			e.memOps++
		}
		e.dispatchSeq++
		e.wireDependencies(en)
		n++
	}
	return n > 0
}

// wireDependencies computes register and memory-ordering dependencies for
// a newly dispatched entry.
func (e *Engine) wireDependencies(en *entry) {
	u := &e.uops[en.idx]
	en.dispatchCycle = uint32(e.cycle)
	e.stats.Instructions++
	e.stats.ClassCounts[u.class]++
	if e.tracer != nil {
		e.tracer.Event(TraceDispatch, e.cycle, en.seq, int(en.idx), &e.code[en.idx])
	}

	rob, mask := e.rob, uint64(len(e.rob)-1)
	if en.isStore {
		// A store issues (and publishes its address) as soon as the base
		// register is ready (u.srcs); the data value only gates loads that
		// forward from it. Track the data producer separately.
		if p := e.regProducer[u.data]; p != 0 && p-1 >= e.headSeq {
			if pe := &rob[(p-1)&mask]; pe.seq == p-1 && pe.state != stDone {
				en.dataDist = uint32(en.seq - (p - 1))
			}
		}
	}
	for _, r := range u.srcs[:u.nsrc] {
		p := e.regProducer[r]
		if p == 0 {
			continue
		}
		pe := &rob[(p-1)&mask]
		if pe.seq != p-1 || pe.state == stDone || p-1 < e.headSeq {
			continue
		}
		e.addConsumer(pe, en.seq)
		en.pendingDeps++
	}
	if u.dest != isa.RZ {
		e.regProducer[u.dest] = en.seq + 1
	}

	if en.isStore {
		e.storeCount++
		en.ordinal = e.storeCount
		// Keep in-flight ordinals (storeKnown, storeCount] within the
		// issued-ordinal ring.
		if e.storeCount-e.storeKnown >= uint64(len(e.storeIssued)) {
			e.growStoreRing()
		}
		e.lastStoreByte.setRange(en.addr, uint64(u.size), en.seq+1)
	}
	if en.isLoad {
		e.stats.Loads++
		// Forwarding/overlap dependency: the youngest earlier store
		// touching any loaded byte. The load waits for that store's
		// address publication and for its data value.
		dep := e.lastStoreByte.getMax(en.addr, uint64(u.size))
		if dep > 0 && dep-1 >= e.headSeq {
			pe := &rob[(dep-1)&mask]
			if pe.seq == dep-1 && pe.state != stDone {
				e.addConsumer(pe, en.seq)
				en.pendingDeps++
			}
			if pe.seq == dep-1 && pe.dataDist != 0 {
				if ds := pe.seq - uint64(pe.dataDist); ds >= e.headSeq {
					dp := &rob[ds&mask]
					if dp.seq == ds && dp.state != stDone {
						e.addConsumer(dp, en.seq)
						en.pendingDeps++
					}
				}
			}
		}
		if !e.cfg.PerfectAlias {
			en.ordinal = e.storeCount
			if en.ordinal > e.storeKnown {
				en.memBlocked = true
				e.memWaiters = append(e.memWaiters, en.seq)
			}
		}
	}
	if en.isStore {
		e.stats.Stores++
	}

	if en.pendingDeps == 0 && !en.memBlocked {
		e.makeReady(en)
	}

	// Warmup epoch: the dispatch of the last warmup instruction — with all
	// its dispatch-side counters charged above — closes the dispatch side.
	if e.warmupLeft != 0 {
		if e.warmupLeft--; e.warmupLeft == 0 {
			e.beginMeasure(en.seq)
		}
	}
}

// fetch pulls instructions from the stream into the fetch queue, modeling
// fetch bandwidth, the I-cache, and branch-misprediction stalls.
func (e *Engine) fetch() bool {
	if e.fetchBlockedOnBranch || e.cycle < e.fetchStallTil || e.streamDone {
		return false
	}
	qCap := e.fetchQueueCap()
	rob, rmask := e.rob, uint64(len(e.rob)-1)
	uops := e.uops
	blocks := 0
	inBlock := 0
	fetched := 0
	for e.fqLen() < qCap {
		for e.recPos == len(e.recs) {
			recs, ok := e.src.Next()
			if !ok {
				e.streamDone = true
				e.recs, e.recPos = nil, 0
				return fetched > 0
			}
			e.recs, e.recPos = recs, 0
		}
		rec := &e.recs[e.recPos]

		// I-cache: charge a stall when crossing into a missing line.
		line := (CodeBase + uint64(rec.Idx)*4) >> blockShift
		if !e.cfg.PerfectMem && line != e.lastFetchLine {
			if lat := e.mem.instAccess(CodeBase+uint64(rec.Idx)*4, e.cycle); lat > 0 {
				e.lastFetchLine = line
				e.fetchStallTil = e.cycle + lat
				e.fetchStallBranch = false
				e.peeked = true
				break
			}
			e.lastFetchLine = line
		}

		e.ensureRing()
		if len(rob) != len(e.rob) {
			rob, rmask = e.rob, uint64(len(e.rob)-1)
		}
		u := &uops[rec.Idx]
		seq := e.tailSeq
		e.tailSeq++
		en := &rob[seq&rmask]
		// Every field is stored directly: a composite literal would build
		// the struct in a temporary and copy it into the ring.
		// consHead/consTail must be reset too — rings recycled by growROB
		// mid-run carry entries whose lists were still live when the ring
		// was swapped out.
		en.seq = seq
		en.addr = rec.Addr
		en.ordinal = 0
		en.dataDist = 0
		en.idx = int32(rec.Idx)
		en.pendingDeps = 0
		en.consHead, en.consTail = 0, 0
		en.fetchCycle = uint32(e.cycle)
		en.dispatchCycle = 0
		en.readyCycle = 0
		en.doneCycle = 0
		en.state = stWaiting
		en.kind = u.kind
		en.isLoad = u.isLoad
		en.isStore = u.isStore
		en.memBlocked = false
		en.memLevel = memHit
		en.issueDelayed = false
		e.recPos++
		e.peeked = false
		fetched++
		if e.tracer != nil {
			e.tracer.Event(TraceFetch, e.cycle, seq, int(rec.Idx), &e.code[rec.Idx])
		}

		// Branch handling.
		if u.br != brNone {
			e.stats.Branches++
			correct := e.cfg.PerfectBpred ||
				e.bp.predict(int(rec.Idx), u.br, rec.Taken(), rec.Target())
			if !correct {
				e.stats.Mispredicts++
				e.fetchBlockedOnBranch = true
				e.blockedBranchSeq = seq
				break
			}
		}

		// Fetch-bandwidth accounting.
		if !inf(e.cfg.FetchWidth) {
			inBlock++
			endBlock := inBlock >= e.cfg.FetchWidth || (u.br != brNone && rec.Taken())
			if endBlock {
				blocks++
				inBlock = 0
				if !inf(e.cfg.FetchBlocksPerCycle) && blocks >= e.cfg.FetchBlocksPerCycle {
					break
				}
			}
		}
	}
	return fetched > 0
}
