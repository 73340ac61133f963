// Package simmem provides the little-endian memory arena shared by the
// functional emulator and the timing model.
package simmem

import (
	"encoding/binary"
	"fmt"
)

// Base is the lowest mapped simulated address. Address 0 is unmapped so
// that null dereferences in kernels fault loudly.
const Base = 0x10000

// DefaultSize is the arena size New gives for a non-positive size. In the
// simulator only key-setup and public-key machines use it: kernel
// encryption and decryption runs size their arena to the kernel layout
// and session (kernels.NewRun, NewDecRun).
const DefaultSize = 8 << 20

// PageSize is the granule of backing storage: a page is allocated on its
// first write, and a page never written reads as zeros.
const PageSize = 4096

type page [PageSize]byte

// Mem is a simulated memory [Base, Base+size). The bounds are fixed at New
// and every access outside them panics, but storage is paged: a run holds
// only the pages it writes — tens of KB for a kernel session — however
// large its arena.
type Mem struct {
	size  uint64
	pages []*page
}

// New returns a memory arena of the given size in bytes.
func New(size int) *Mem {
	if size <= 0 {
		size = DefaultSize
	}
	return &Mem{size: uint64(size), pages: make([]*page, (size+PageSize-1)/PageSize)}
}

// Size returns the arena size in bytes.
func (m *Mem) Size() int { return int(m.size) }

// Resident returns the bytes of backing storage allocated so far: one
// PageSize for every page written.
func (m *Mem) Resident() int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n += PageSize
		}
	}
	return n
}

// offset returns the arena offset of [addr, addr+n), panicking if any of
// it lies outside the arena. The checks here and in access panic with a
// value, not a formatted string, which keeps them cheap enough to inline
// into every load and store.
func (m *Mem) offset(addr uint64, n int) uint64 {
	off := addr - Base // wraps past size for addr < Base
	if off > m.size || uint64(n) > m.size-off {
		panic(rangeError{addr, n, m.size})
	}
	return off
}

// access is offset for a Load or Store of size bytes, which must be 1, 2,
// 4 or 8.
func (m *Mem) access(addr uint64, size int) uint64 {
	if size != 1 && size != 2 && size != 4 && size != 8 {
		panic(sizeError(size))
	}
	return m.offset(addr, size)
}

// rangeError is the panic value of an access [addr, addr+n) outside an
// arena of size bytes.
type rangeError struct {
	addr uint64
	n    int
	size uint64
}

func (e rangeError) Error() string {
	return fmt.Sprintf("simmem: access [%#x,%#x) outside arena [%#x,%#x)",
		e.addr, e.addr+uint64(e.n), uint64(Base), Base+e.size)
}

// sizeError is the panic value of a load or store of a size other than
// 1, 2, 4 or 8 bytes.
type sizeError int

func (e sizeError) Error() string { return fmt.Sprintf("simmem: bad access size %d", int(e)) }

// page returns page i, allocating it on first use.
func (m *Mem) page(i uint64) *page {
	p := m.pages[i]
	if p == nil {
		p = new(page)
		m.pages[i] = p
	}
	return p
}

// read copies the bytes at arena offset off into dst.
func (m *Mem) read(off uint64, dst []byte) {
	for len(dst) > 0 {
		po := off % PageSize
		n := min(len(dst), int(PageSize-po))
		if p := m.pages[off/PageSize]; p != nil {
			copy(dst[:n], p[po:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += uint64(n)
	}
}

// write copies src to arena offset off.
func (m *Mem) write(off uint64, src []byte) {
	for len(src) > 0 {
		n := copy(m.page(off / PageSize)[off%PageSize:], src)
		src = src[n:]
		off += uint64(n)
	}
}

// Load returns the zero-extended little-endian value of the given size
// (1, 2, 4 or 8 bytes) at addr.
func (m *Mem) Load(addr uint64, size int) uint64 {
	off := m.access(addr, size)
	po := off % PageSize
	if po+uint64(size) > PageSize {
		var b [8]byte
		m.read(off, b[:size])
		return binary.LittleEndian.Uint64(b[:])
	}
	p := m.pages[off/PageSize]
	if p == nil {
		return 0
	}
	s := p[po:]
	switch size {
	case 1:
		return uint64(s[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(s))
	case 4:
		return uint64(binary.LittleEndian.Uint32(s))
	}
	return binary.LittleEndian.Uint64(s)
}

// Store writes the low size bytes of v at addr, little-endian.
func (m *Mem) Store(addr uint64, size int, v uint64) {
	off := m.access(addr, size)
	po := off % PageSize
	if po+uint64(size) > PageSize {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		m.write(off, b[:size])
		return
	}
	s := m.page(off / PageSize)[po:]
	switch size {
	case 1:
		s[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(s, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(s, uint32(v))
	default:
		binary.LittleEndian.PutUint64(s, v)
	}
}

// WriteBytes copies p into memory at addr.
func (m *Mem) WriteBytes(addr uint64, p []byte) {
	m.write(m.offset(addr, len(p)), p)
}

// ReadBytes copies n bytes at addr into a fresh slice.
func (m *Mem) ReadBytes(addr uint64, n int) []byte {
	off := m.offset(addr, n)
	out := make([]byte, n)
	m.read(off, out)
	return out
}

// WriteUint32s stores each word consecutively from addr.
func (m *Mem) WriteUint32s(addr uint64, words []uint32) {
	for i, w := range words {
		m.Store(addr+uint64(4*i), 4, uint64(w))
	}
}

// ReadUint32s loads n consecutive words from addr.
func (m *Mem) ReadUint32s(addr uint64, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(m.Load(addr+uint64(4*i), 4))
	}
	return out
}
