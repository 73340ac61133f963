// Package cryptoarch is the public API of this reproduction of
// "Architectural Support for Fast Symmetric-Key Cryptography"
// (Burke, McDonald, Austin; ASPLOS 2000).
//
// It exposes three layers:
//
//   - the cipher library: from-scratch implementations of the paper's
//     eight symmetric ciphers with CBC chaining (NewCipher, EncryptCBC...);
//   - the AXP64 toolchain: an Alpha-like ISA with the paper's
//     cryptographic extensions, an assembler builder, a functional
//     emulator, and hand-written cipher kernels at three ISA levels
//     (ISABase, ISARotate, ISAExtended; InstructionCount);
//   - the microarchitecture laboratory: the cycle-level out-of-order
//     timing model with the paper's machine configurations
//     (Time, FourWide...) and bottleneck-analysis knobs.
//
// cmd/asplos2000 regenerates every table and figure of the paper from
// these pieces; see DESIGN.md and EXPERIMENTS.md.
package cryptoarch

import (
	"fmt"

	"cryptoarch/internal/ciphers"
	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
)

// Block is a keyed block cipher; Stream is a keyed stream cipher (RC4).
type (
	Block  = ciphers.Block
	Stream = ciphers.Stream
)

// CipherNames returns the eight supported cipher names:
// 3des, blowfish, idea, mars, rc4, rc6, rijndael, twofish.
func CipherNames() []string { return kernels.Names() }

// CipherInfo describes a cipher's paper configuration (Table 1).
type CipherInfo struct {
	Name      string
	KeyBits   int
	BlockBits int
	Rounds    int
	Stream    bool
	KeyBytes  int
}

// Info returns the Table 1 configuration of a cipher.
func Info(name string) (CipherInfo, error) {
	k, err := kernels.Get(name)
	if err != nil {
		return CipherInfo{}, err
	}
	return CipherInfo{
		Name:      k.Name,
		KeyBits:   k.KeyBits,
		BlockBits: 8 * k.BlockBytes,
		Rounds:    k.Rounds,
		Stream:    k.NewStream != nil,
		KeyBytes:  k.KeyBytes,
	}, nil
}

// NewCipher returns a keyed block cipher by name. RC4 is a stream cipher;
// use NewStream for it.
func NewCipher(name string, key []byte) (Block, error) {
	k, err := kernels.Get(name)
	if err != nil {
		return nil, err
	}
	if k.NewBlock == nil {
		return nil, fmt.Errorf("cryptoarch: %s is a stream cipher; use NewStream", name)
	}
	return k.NewBlock(key)
}

// NewStream returns a keyed stream cipher by name (rc4).
func NewStream(name string, key []byte) (Stream, error) {
	k, err := kernels.Get(name)
	if err != nil {
		return nil, err
	}
	if k.NewStream == nil {
		return nil, fmt.Errorf("cryptoarch: %s is a block cipher; use NewCipher", name)
	}
	return k.NewStream(key)
}

// EncryptCBC encrypts src in chaining-block-cipher mode, updating iv in
// place so sessions can continue across calls. DecryptCBC reverses it.
func EncryptCBC(b Block, iv, dst, src []byte) { ciphers.CBCEncrypt(b, iv, dst, src) }

// DecryptCBC is the inverse of EncryptCBC.
func DecryptCBC(b Block, iv, dst, src []byte) { ciphers.CBCDecrypt(b, iv, dst, src) }

// ISA selects the instruction-set level a kernel is assembled for.
type ISA = isa.Feature

// The paper's three code versions.
var (
	ISABase     = isa.FeatNoRot // baseline without rotate instructions
	ISARotate   = isa.FeatRot   // baseline plus ROL/ROR (normalization target)
	ISAExtended = isa.FeatOpt   // full crypto extensions
)

// Machine is a microarchitecture configuration of the timing model.
type Machine = ooo.Config

// The paper's Table 2 machine models.
var (
	FourWide      = ooo.FourWide      // ~Alpha 21264 baseline
	FourWidePlus  = ooo.FourWidePlus  // + SBox caches, + rotator units
	EightWidePlus = ooo.EightWidePlus // double execution bandwidth
	Dataflow      = ooo.Dataflow      // upper bound
)

// Stats summarizes one timing run.
type Stats = ooo.Stats

// Time encrypts sessionBytes of a deterministic pseudorandom session with
// the named cipher's AXP64 kernel at the given ISA level on a machine
// model, returning cycle-accurate statistics. The kernel output is the
// same ciphertext the golden Go cipher produces (validated in the test
// suite).
func Time(cipher string, level ISA, m Machine, sessionBytes int) (*Stats, error) {
	return harness.TimeKernel(cipher, level, m, sessionBytes, 1)
}

// TimeDecrypt is Time for the decryption direction: golden-encrypted
// ciphertext is unchained by the cipher's AXP64 decryption kernel.
func TimeDecrypt(cipher string, level ISA, m Machine, sessionBytes int) (*Stats, error) {
	return harness.TimeDecrypt(cipher, level, m, sessionBytes, 1)
}

// InstructionCount runs the kernel on the functional emulator alone and
// returns the dynamic instruction count (the paper's 1-CPI machine).
func InstructionCount(cipher string, level ISA, sessionBytes int) (uint64, error) {
	return harness.CountKernel(cipher, level, sessionBytes, 1)
}
