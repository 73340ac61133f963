package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strconv"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/metrics"
)

// Key derivation. Every store entry is addressed by the FNV-1a content
// hash of the complete identity of what it holds (metrics.HashKey). Nothing
// in the store is ever "updated": a change to any identity field derives a
// different key, so a stale entry can only ever be missed, never returned.

// TraceIdentity is everything that determines a recorded trace bit for
// bit: the functional emulator generation, the kernel program bytes (via
// ProgramDigest), and the session parameters. Two processes that derive
// equal keys are guaranteed — by construction, and pinned by the harness
// fault-in equivalence tests — to record byte-identical traces.
type TraceIdentity struct {
	EmuVersion string // emu.Version: functional-emulation semantics
	Cipher     string
	Feat       string // feature level (norot/rot/opt)
	ProgDigest string // ProgramDigest of the assembled kernel
	Session    int    // session bytes (0 for setup programs)
	Seed       int64
	Mode       string // encrypt | decrypt | setup
}

// Key derives the trace-tier store key.
func (id TraceIdentity) Key() string {
	return metrics.HashKey("trace", strconv.Itoa(SchemaVersion), id.EmuVersion,
		id.Cipher, id.Feat, id.ProgDigest,
		strconv.Itoa(id.Session), strconv.FormatInt(id.Seed, 10), id.Mode)
}

// ResultIdentity is everything that determines a finished cell result: the
// trace identity fields plus the timing-engine generation and the full
// machine configuration (every knob, not just the model name — a config
// edit that kept its name must still miss).
type ResultIdentity struct {
	EngineVersion string // ooo.EngineVersion: timing-model semantics
	EmuVersion    string // emu.Version: functional-emulation semantics
	Kind          string // cell kind (kernel/setup/decrypt/count/mix/valuepred/handshake)
	Cipher        string
	Feat          string
	ProgDigest    string
	Session       int
	Seed          int64
	Config        string // full rendering of the machine config fields
}

// Key derives the result-tier store key.
func (id ResultIdentity) Key() string {
	return metrics.HashKey("result", strconv.Itoa(SchemaVersion),
		id.EngineVersion, id.EmuVersion, id.Kind, id.Cipher, id.Feat, id.ProgDigest,
		strconv.Itoa(id.Session), strconv.FormatInt(id.Seed, 10), id.Config)
}

// ProgramDigest returns the FNV-1a content hash (16 hex digits) of an
// assembled program: every field of every instruction plus the read-only
// data segment. Any kernel edit — an opcode, a register, a literal, a
// selector, a rodata table byte — changes the digest and therefore every
// store key derived from it. The program name and labels are deliberately
// excluded: they are debug metadata that does not affect execution.
func ProgramDigest(p *isa.Program) string {
	h := fnv.New64a()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	put(uint64(len(p.Code)))
	for i := range p.Code {
		in := &p.Code[i]
		put(uint64(in.Op) | uint64(in.Ra)<<8 | uint64(in.Rb)<<16 | uint64(in.Rc)<<24)
		put(uint64(in.Lit))
		var flags uint64
		if in.UseLit {
			flags |= 1
		}
		if in.Aliased {
			flags |= 2
		}
		put(flags | uint64(in.Sel1)<<8 | uint64(in.Sel2)<<16 | uint64(in.Class)<<24)
	}
	put(uint64(len(p.Rodata)))
	h.Write(p.Rodata)
	return fmt.Sprintf("%016x", h.Sum64())
}
