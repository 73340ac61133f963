// Package kernels contains the AXP64 implementations of the eight cipher
// kernels, each hand-written once against the builder's macro layer and
// assembled at three feature levels, mirroring the paper's code versions:
//
//	norot — baseline ISA without rotate instructions (rotates synthesized)
//	rot   — baseline ISA plus ROL/ROR (the paper's normalization target)
//	opt   — full crypto extensions (ROLX, MULMOD, SBOX, XBOX)
//
// Each cipher also provides a decryption kernel (validated by unchaining
// golden-encrypted sessions, the paper's own cross-check) and a key-setup
// program (for the Figure 6 setup-cost experiment) whose in-simulator
// output is validated byte-for-byte against the golden Go key schedule.
//
// The kernel table is the repository's one cipher table: each record also
// carries the cipher's Table 1 row and the constructor of its golden Go
// model from internal/ciphers.
package kernels

import (
	"fmt"
	"slices"
	"sort"

	"cryptoarch/internal/check"
	"cryptoarch/internal/ciphers"
	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/simmem"
)

// Standard simulated-memory layout for kernel runs.
const (
	CtxAddr    = 0x20000  // cipher context (1KB aligned: S-box tables first)
	RodataAddr = 0x80000  // program literal pool / static tables
	InAddr     = 0x100000 // plaintext buffer
	OutAddr    = 0x300000 // ciphertext buffer
)

// Kernel is the one descriptor of a cipher: its Table 1 row, its golden
// Go model and its AXP64 programs. Adding a cipher takes one record.
type Kernel struct {
	// Name is the cipher name.
	Name string
	// KeyBits is the key size in bits as configured for the experiments
	// (3DES counts its 168 effective bits; its raw key is KeyBytes).
	KeyBits int
	// Rounds is the number of kernel iterations per block.
	Rounds int
	// Author and Example are Table 1's author and example application.
	Author, Example string
	// NewBlock keys the golden block cipher; NewStream keys the golden
	// stream cipher (RC4). Exactly one of them is set.
	NewBlock  func(key []byte) (ciphers.Block, error)
	NewStream func(key []byte) (ciphers.Stream, error)
	// BlockBytes is the kernel's processing granule (1 for RC4); Table 1's
	// block bits are 8*BlockBytes.
	BlockBytes int
	// Build assembles the encryption kernel at a feature level. The
	// program follows the argument convention (in, out, len, ctx) and
	// carries the CBC IV (or RC4 state) inside the context.
	Build func(feat isa.Feature) *isa.Program
	// BuildDec assembles the decryption kernel (CBC unchaining). For
	// ciphers whose decryption is the encryption network with transformed
	// key material (3DES, Blowfish, IDEA) it shares the round code; RC4's
	// keystream kernel decrypts as-is.
	BuildDec func(feat isa.Feature) *isa.Program
	// InitDecCtx writes the decryption context (inverse key material
	// where the cipher needs it). Nil means InitCtx also serves decryption.
	InitDecCtx func(mem *simmem.Mem, ctx uint64, key, iv []byte) error
	// BuildSetup assembles the key-setup program: it reads the raw key
	// from the context and writes the expanded key material the kernel
	// consumes. Nil keyLen semantics are cipher-specific.
	BuildSetup func(feat isa.Feature) *isa.Program
	// InitCtx writes the full precomputed context (expanded keys, tables,
	// IV/state) into simulated memory using the golden Go implementation.
	InitCtx func(mem *simmem.Mem, ctx uint64, key, iv []byte) error
	// InitKeyOnly writes only the raw key (and IV) into the context, for
	// runs that execute the setup program in-simulator.
	InitKeyOnly func(mem *simmem.Mem, ctx uint64, key, iv []byte) error
	// CtxBytes is the context size.
	CtxBytes int
	// KeyBytes is the raw key size used in the experiments.
	KeyBytes int
	// SetupOff/SetupLen delimit the context region the setup program
	// produces (compared byte-for-byte against the golden key schedule).
	SetupOff, SetupLen int
	// IVOff is the context offset of the CBC intermediate vector
	// (unused for the RC4 stream kernel).
	IVOff uint64
}

var registry = map[string]*Kernel{}

func register(k *Kernel) {
	if _, dup := registry[k.Name]; dup {
		panic("kernels: duplicate " + k.Name)
	}
	registry[k.Name] = k
}

// Get returns the kernel for a cipher name.
func Get(name string) (*Kernel, error) {
	k, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("kernels: unknown cipher %q%s", name, check.Suggest(name, Names()))
	}
	return k, nil
}

// Encrypt returns the golden model's ciphertext of a session: plain in
// CBC mode from iv for a block cipher (iv is not modified), or XORed
// with the keystream for a stream cipher.
func (k *Kernel) Encrypt(key, iv, plain []byte) ([]byte, error) {
	ct := make([]byte, len(plain))
	if k.NewStream != nil {
		s, err := k.NewStream(key)
		if err != nil {
			return nil, err
		}
		s.XORKeyStream(ct, plain)
		return ct, nil
	}
	b, err := k.NewBlock(key)
	if err != nil {
		return nil, err
	}
	ciphers.CBCEncrypt(b, slices.Clone(iv), ct, plain)
	return ct, nil
}

// buildSafe assembles a program, converting builder panics (malformed
// macro expansion, undefined label, bad feature gating) into errors at the
// API boundary so a broken kernel fails a run or a sweep cell instead of
// crashing the process.
func buildSafe(name string, build func(isa.Feature) *isa.Program, feat isa.Feature) (prog *isa.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("kernels: building %s at %v: %v", name, feat, r)
		}
	}()
	return build(feat), nil
}

// ProgramFor assembles one of the kernel's programs by kind — "encrypt",
// "decrypt" or "setup" — at a feature level, behind the same panic-to-error
// boundary as the run constructors. The persistent store uses it to digest
// kernel bytes (and to recover the static program for a replayed trace)
// without building a machine or touching simulated memory.
func (k *Kernel) ProgramFor(kind string, feat isa.Feature) (*isa.Program, error) {
	build := k.Build
	switch kind {
	case "encrypt":
	case "decrypt":
		build = k.BuildDec
	case "setup":
		build = k.BuildSetup
	default:
		return nil, fmt.Errorf("kernels: unknown program kind %q (want encrypt, decrypt or setup)", kind)
	}
	if build == nil {
		return nil, fmt.Errorf("kernels: %s has no %s program", k.Name, kind)
	}
	return buildSafe(k.Name, build, feat)
}

// Names lists the registered ciphers, sorted, which is the paper's
// presentation order.
func Names() []string {
	var out []string
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// runArena returns a memory arena bounded by the kernel layout for a
// session of n bytes: everything below the output buffer, the output, and
// a 4 KB tail. The size is a bound, not an allocation: no kernel touches
// memory past it, so an access past it fails the run, and the run holds
// only the pages it writes (context, literals, input and output).
func runArena(n int) *simmem.Mem {
	return simmem.New(int(OutAddr-simmem.Base) + n + 4096)
}

// NewRun prepares a machine for an encryption run: context initialized
// from the golden model, plaintext in place, arguments loaded.
func NewRun(k *Kernel, feat isa.Feature, key, iv, plaintext []byte) (*emu.Machine, *simmem.Mem, error) {
	mem := runArena(len(plaintext))
	if err := k.InitCtx(mem, CtxAddr, key, iv); err != nil {
		return nil, nil, err
	}
	mem.WriteBytes(InAddr, plaintext)
	prog, err := buildSafe(k.Name, k.Build, feat)
	if err != nil {
		return nil, nil, err
	}
	m := emu.New(prog, mem, RodataAddr)
	m.SetArgs(InAddr, OutAddr, uint64(len(plaintext)), CtxAddr)
	return m, mem, nil
}

// NewDecRun prepares a machine for a decryption run: ciphertext in the
// input buffer, decryption context initialized from the golden model.
func NewDecRun(k *Kernel, feat isa.Feature, key, iv, ciphertext []byte) (*emu.Machine, *simmem.Mem, error) {
	if k.BuildDec == nil {
		return nil, nil, fmt.Errorf("kernels: %s has no decryption kernel", k.Name)
	}
	mem := runArena(len(ciphertext))
	initCtx := k.InitDecCtx
	if initCtx == nil {
		initCtx = k.InitCtx
	}
	if err := initCtx(mem, CtxAddr, key, iv); err != nil {
		return nil, nil, err
	}
	mem.WriteBytes(InAddr, ciphertext)
	prog, err := buildSafe(k.Name, k.BuildDec, feat)
	if err != nil {
		return nil, nil, err
	}
	m := emu.New(prog, mem, RodataAddr)
	m.SetArgs(InAddr, OutAddr, uint64(len(ciphertext)), CtxAddr)
	return m, mem, nil
}

// NewSetupRun prepares a machine for a key-setup run: only the raw key is
// in the context.
func NewSetupRun(k *Kernel, feat isa.Feature, key, iv []byte) (*emu.Machine, *simmem.Mem, error) {
	if k.BuildSetup == nil {
		return nil, nil, fmt.Errorf("kernels: %s has no setup program", k.Name)
	}
	mem := simmem.New(0)
	if err := k.InitKeyOnly(mem, CtxAddr, key, iv); err != nil {
		return nil, nil, err
	}
	prog, err := buildSafe(k.Name, k.BuildSetup, feat)
	if err != nil {
		return nil, nil, err
	}
	m := emu.New(prog, mem, RodataAddr)
	m.SetArgs(0, 0, uint64(len(key)), CtxAddr)
	return m, mem, nil
}

// --- shared builder helpers ---

// swapMasks is the pair of mask registers the byte-swap helpers expect
// (0xff00 and 0xff0000); kernels that marshal big-endian data load them
// once in the prologue with LoadSwapMasks.
type swapMasks struct{ m1, m2 isa.Reg }

// loadSwapMasks materializes the byte-swap masks.
func loadSwapMasks(b *isa.Builder, m1, m2 isa.Reg) swapMasks {
	b.LoadImm32(m1, 0xff00)
	b.LoadImm32(m2, 0xff0000)
	return swapMasks{m1, m2}
}

// swap32 emits dst = byte-reverse of the low 32 bits of src (the n2l
// marshalling cost real little-endian machines pay for big-endian cipher
// specs). dst and t must differ from src and each other.
func swap32(b *isa.Builder, src, dst, t isa.Reg, m swapMasks) {
	b.SRLLI(src, 24, dst)
	b.SRLLI(src, 8, t)
	b.AND(t, m.m1, t)
	b.OR(dst, t, dst)
	b.SLLLI(src, 8, t)
	b.AND(t, m.m2, t)
	b.OR(dst, t, dst)
	b.SLLLI(src, 24, t)
	b.OR(dst, t, dst)
}
