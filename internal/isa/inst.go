package isa

// Dest returns the register written by i, or RZ if none. Loads write Ra
// (memory format); operate-format instructions (including SBOX and XBOX)
// write Rc.
func (i *Inst) Dest() Reg {
	p := P(i.Op)
	switch {
	case p.Load && i.Op != OpSBOX:
		return i.Ra
	case p.WritesC:
		return i.Rc
	case i.Op == OpBSR:
		return RLNK
	}
	return RZ
}

// Sources appends the registers read by i to dst and returns it. RZ is
// omitted (it is always ready and always zero).
func (i *Inst) Sources(dst []Reg) []Reg {
	p := P(i.Op)
	add := func(r Reg) {
		if r != RZ {
			dst = append(dst, r)
		}
	}
	if p.Load && i.Op != OpSBOX {
		add(i.Rb)
		return dst
	}
	if p.Store {
		add(i.Ra)
		add(i.Rb)
		return dst
	}
	if p.ReadsA {
		add(i.Ra)
	}
	if p.ReadsB && !i.UseLit {
		add(i.Rb)
	}
	if p.ReadsC {
		add(i.Rc)
	}
	return dst
}
