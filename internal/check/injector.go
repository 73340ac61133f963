package check

import "math/rand"

// FaultClass names one corruption mechanism the injector can apply. Each
// class maps to the checker (or checksum) that must detect it; the
// detection-coverage tests in internal/ooo and internal/store walk this
// mapping so no class is silently undetectable.
type FaultClass string

const (
	// FaultSboxCache perturbs SBox-cache state (valid bits without a tag,
	// misaligned tag) — detected by the "sbox-cache" checker.
	FaultSboxCache FaultClass = "sbox-cache"
	// FaultROBEntry corrupts an in-flight reorder-buffer entry — detected
	// by the "rob-entry" / "scoreboard" checkers.
	FaultROBEntry FaultClass = "rob-entry"
)

// Injector is a deterministic, seed-driven fault injector. It does not
// reach into other packages' state itself; it makes every random choice
// (which record, which bit, which cycle) reproducible, and the tests of
// the target package apply the corruption it picks. Injected faults are
// logged so a test can assert exactly what was planted.
type Injector struct {
	Seed int64
	rng  *rand.Rand
	log  []FaultClass
}

// NewInjector returns an injector whose choices are fully determined by
// seed.
func NewInjector(seed int64) *Injector {
	return &Injector{Seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Intn returns a deterministic value in [0, n).
func (in *Injector) Intn(n int) int { return in.rng.Intn(n) }

// Uint64 returns a deterministic 64-bit value.
func (in *Injector) Uint64() uint64 { return in.rng.Uint64() }

// Point picks a deterministic trigger point in [1, limit] — e.g. the
// cycle or record index at which to apply a fault.
func (in *Injector) Point(limit uint64) uint64 {
	if limit == 0 {
		return 0
	}
	return 1 + uint64(in.rng.Int63n(int64(limit)))
}

// FlipBit flips one pseudo-randomly chosen bit of buf in place and
// returns its location. buf must be non-empty.
func (in *Injector) FlipBit(buf []byte) (idx int, bit uint) {
	idx = in.rng.Intn(len(buf))
	bit = uint(in.rng.Intn(8))
	buf[idx] ^= 1 << bit
	return idx, bit
}

// FlipBit64 returns v with one pseudo-randomly chosen bit flipped, plus
// the bit position.
func (in *Injector) FlipBit64(v uint64) (uint64, uint) {
	bit := uint(in.rng.Intn(64))
	return v ^ 1<<bit, bit
}

// Note records that a fault of class c was planted.
func (in *Injector) Note(c FaultClass) { in.log = append(in.log, c) }

// Injected returns the classes of every fault planted so far, in order.
func (in *Injector) Injected() []FaultClass { return in.log }
