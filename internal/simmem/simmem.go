// Package simmem provides the flat little-endian memory arena shared by the
// functional emulator and the timing model.
package simmem

import (
	"encoding/binary"
	"fmt"
)

// Base is the lowest mapped simulated address. Address 0 is unmapped so
// that null dereferences in kernels fault loudly.
const Base = 0x10000

// DefaultSize is the default arena size (enough for the largest session,
// all cipher contexts, and program rodata).
const DefaultSize = 8 << 20

// Mem is a flat simulated memory [Base, Base+len).
type Mem struct {
	data []byte
}

// New returns a memory arena of the given size in bytes.
func New(size int) *Mem {
	if size <= 0 {
		size = DefaultSize
	}
	return &Mem{data: make([]byte, size)}
}

// Size returns the arena size in bytes.
func (m *Mem) Size() int { return len(m.data) }

func (m *Mem) slice(addr uint64, n int) []byte {
	if addr < Base || addr+uint64(n) > Base+uint64(len(m.data)) {
		panic(fmt.Sprintf("simmem: access [%#x,%#x) outside arena [%#x,%#x)",
			addr, addr+uint64(n), uint64(Base), Base+uint64(len(m.data))))
	}
	off := addr - Base
	return m.data[off : off+uint64(n)]
}

// Load returns the zero-extended little-endian value of the given size
// (1, 2, 4 or 8 bytes) at addr.
func (m *Mem) Load(addr uint64, size int) uint64 {
	s := m.slice(addr, size)
	switch size {
	case 1:
		return uint64(s[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(s))
	case 4:
		return uint64(binary.LittleEndian.Uint32(s))
	case 8:
		return binary.LittleEndian.Uint64(s)
	}
	panic(fmt.Sprintf("simmem: bad access size %d", size))
}

// Store writes the low size bytes of v at addr, little-endian.
func (m *Mem) Store(addr uint64, size int, v uint64) {
	s := m.slice(addr, size)
	switch size {
	case 1:
		s[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(s, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(s, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(s, v)
	default:
		panic(fmt.Sprintf("simmem: bad access size %d", size))
	}
}

// WriteBytes copies p into memory at addr.
func (m *Mem) WriteBytes(addr uint64, p []byte) {
	copy(m.slice(addr, len(p)), p)
}

// ReadBytes copies n bytes at addr into a fresh slice.
func (m *Mem) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	copy(out, m.slice(addr, n))
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
