package check

import (
	"encoding/binary"
	"hash"
	"hash/crc32"
)

// castagnoli is the CRC-32C table; hash/crc32 recognises it and switches
// to the SSE4.2 / ARMv8 crc32c instructions where the CPU has them.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// NewSum64 returns the repo's bulk-integrity sum: CRC-32C (Castagnoli) in
// the high 32 bits and CRC-32 (IEEE) in the low 32, both over the same
// bytes. It guards the persistent store's entries on disk: the store sums
// each payload as it writes it and verifies the sum on every load.
// Traces retained in memory are not re-hashed; they are immutable between
// those two points.
//
// Each half catches every burst error up to 32 bits long, which covers
// every change confined to one byte; random damage must fool both
// polynomials at once to go unseen. Both halves run on instructions the
// hardware already has (crc32 / PCLMULQDQ on amd64, CRC32 on arm64)
// through hash/crc32, rather than a byte-serial chain of multiplies.
//
// Content-identity keys (metrics.HashKey, store.ProgramDigest) stay on
// FNV-1a: they name what an entry is, not whether its bytes survived.
func NewSum64() hash.Hash64 { return new(sum64) }

// sum64 is the running state of NewSum64: the two CRCs, each in the
// finalised form crc32.Update takes and returns.
type sum64 struct{ c, ieee uint32 }

func (s *sum64) Write(p []byte) (int, error) {
	s.c = crc32.Update(s.c, castagnoli, p)
	s.ieee = crc32.Update(s.ieee, crc32.IEEETable, p)
	return len(p), nil
}

func (s *sum64) Sum64() uint64 { return uint64(s.c)<<32 | uint64(s.ieee) }

// Sum appends the sum in big-endian order, the hash.Hash64 convention.
func (s *sum64) Sum(b []byte) []byte { return binary.BigEndian.AppendUint64(b, s.Sum64()) }

func (s *sum64) Reset()         { *s = sum64{} }
func (s *sum64) Size() int      { return 8 }
func (s *sum64) BlockSize() int { return 1 }
