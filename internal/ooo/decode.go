package ooo

import (
	"cryptoarch/internal/core"
	"cryptoarch/internal/isa"
)

// Per-PC micro-op table. Apart from its effective address and branch
// outcome, everything the pipeline needs to know about a dynamic
// instruction is a property of the static instruction and of this
// engine's configuration. decode derives it once per run for every PC;
// fetch, dispatch, issue and the branch predictor then index the table
// by the record's PC and never consult isa.P or the operand fields.

// Memory-access kinds (uop.acc), checked by latency in this order.
const (
	accNone      uint8 = iota
	accSbox            // SBOX through its dedicated SBox cache
	accSboxDPort       // SBOX through a D-cache port (aliased, or no cache for its table)
	accLoad            // load through the data hierarchy
	accStore           // store: allocates and dirties its line at issue
)

// Branch kinds (uop.br) as the predictor treats them.
const (
	brNone uint8 = iota
	brCond       // conditional: bimodal counter
	brJump       // BR: direct target, ideal BTB
	brCall       // BSR: pushes the return address
	brRet        // RET: predicted by the return-address stack
)

// uop is the predecoded form of one static instruction under one config.
type uop struct {
	srcs    [3]isa.Reg // producers that gate issue; RZ omitted, a store lists only its base
	nsrc    uint8
	dest    isa.Reg // RZ when nothing is written
	data    isa.Reg // stores: the data register, which gates only forwarding loads
	kind    uint8   // FU kind after this config's SBox routing
	acc     uint8   // memory-access kind
	br      uint8   // branch kind
	isLoad  bool    // ordered behind earlier stores (loads and aliased SBOX)
	isStore bool
	sync    bool // SBOXSYNC: invalidates every SBox cache at issue
	class   isa.Class
	size    uint8 // memory access size in bytes
	lat     uint8 // execution latency of a non-memory op
	table   uint8 // SBOX: architectural table, which names its SBox cache
}

// decode builds the micro-op table of code for cfg.
func decode(code []isa.Inst, cfg *Config) []uop {
	uops := make([]uop, len(code))
	for i := range code {
		in, u := &code[i], &uops[i]
		op := in.Op
		p := isa.P(op)
		u.class, u.size, u.table = in.Class, p.Size, in.Sel1
		u.dest = in.Dest()
		u.isStore = p.Store
		u.isLoad = p.Load && op != isa.OpSBOX
		u.sync = op == isa.OpSBOXSYNC

		srcs := in.Sources(u.srcs[:0])
		if p.Store {
			// A store issues (and publishes its address) as soon as its
			// base register is ready; the data producer is tracked apart.
			srcs = srcs[:0]
			if in.Rb != isa.RZ {
				srcs = append(srcs, in.Rb)
			}
			u.data = in.Ra
		}
		u.nsrc = uint8(len(srcs))

		sboxDPort := false
		if op == isa.OpSBOX {
			if in.Aliased {
				// Aliased SBOX behaves as a load with optimized agen.
				u.isLoad = true
				sboxDPort = true
			} else if int(in.Sel1) >= cfg.NumSboxCaches {
				sboxDPort = true
			}
		}

		switch {
		case op == isa.OpSBOX && !sboxDPort:
			u.kind = uint8(kindSbox0 + int(in.Sel1))
		case u.isLoad || u.isStore || op == isa.OpSBOX:
			u.kind = kindDPort
		case op == isa.OpMULQ || op == isa.OpUMULH:
			u.kind = kindMul64
		case op == isa.OpMULL || op == isa.OpMULMOD:
			u.kind = kindMul32
		case op == isa.OpROLQ || op == isa.OpRORQ || op == isa.OpROLL || op == isa.OpRORL ||
			op == isa.OpROLXL || op == isa.OpRORXL || op == isa.OpROLXQ || op == isa.OpRORXQ ||
			op == isa.OpXBOX:
			u.kind = kindRot
		case op == isa.OpHALT || op == isa.OpNOP || op == isa.OpSBOXSYNC:
			u.kind = kindNone
		default:
			u.kind = kindIALU
		}

		switch {
		case op == isa.OpSBOX && sboxDPort:
			u.acc = accSboxDPort
		case op == isa.OpSBOX:
			u.acc = accSbox
		case u.isLoad:
			u.acc = accLoad
		case u.isStore:
			u.acc = accStore
		}

		switch op {
		case isa.OpMULQ, isa.OpUMULH:
			u.lat = core.LatMul64
		case isa.OpMULL:
			u.lat = core.LatMul32
		case isa.OpMULMOD:
			u.lat = core.LatMulMod
		default:
			u.lat = 1
		}

		switch {
		case op == isa.OpBSR:
			u.br = brCall
		case op == isa.OpRET:
			u.br = brRet
		case p.Uncond:
			u.br = brJump
		case p.Branch:
			u.br = brCond
		}
	}
	return uops
}
