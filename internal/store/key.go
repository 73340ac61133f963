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

// ResultIdentity is everything that determines a finished cell result: the
// functional emulator and timing-engine generations, the kernel program
// bytes (via ProgramDigest), the session parameters and the full machine
// configuration (every knob, not just the model name — a config edit that
// kept its name must still miss).
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

// Key derives the store key.
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
