// Package twofish implements the Twofish block cipher (Schneier et al.,
// AES finalist) from scratch for 128-bit keys: 16 rounds of a Feistel
// network whose round function g is, after key setup, four key-dependent
// 256x32-bit table lookups plus a pseudo-Hadamard transform — exactly the
// "full keying" option the paper's optimized kernels rely on. The four
// tables are exported for the AXP64 kernels.
package twofish

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// BlockSize and KeySize are the paper's configuration.
const (
	BlockSize = 16
	KeySize   = 16
	rounds    = 16
)

// GF(2^8) reduction polynomials: MDS uses v(x)=x^8+x^6+x^5+x^3+1, the RS
// code uses w(x)=x^8+x^6+x^3+x^2+1.
const (
	mdsPoly = 0x169
	rsPoly  = 0x14d
)

func gfMul(a, b byte, poly uint32) byte {
	var p uint32
	x := uint32(a)
	for b != 0 {
		if b&1 != 0 {
			p ^= x
		}
		x <<= 1
		if x&0x100 != 0 {
			x ^= poly
		}
		b >>= 1
	}
	return byte(p)
}

var mds = [4][4]byte{
	{0x01, 0xEF, 0x5B, 0x5B},
	{0x5B, 0xEF, 0xEF, 0x01},
	{0xEF, 0x5B, 0x01, 0xEF},
	{0xEF, 0x01, 0xEF, 0x5B},
}

var rs = [4][8]byte{
	{0x01, 0xA4, 0x55, 0x87, 0x5A, 0x58, 0xDB, 0x9E},
	{0xA4, 0x56, 0x82, 0xF3, 0x1E, 0xC6, 0x68, 0xE5},
	{0x02, 0xA1, 0xFC, 0xC1, 0x47, 0xAE, 0x3D, 0x19},
	{0xA4, 0x55, 0x87, 0x5A, 0x58, 0xDB, 0x9E, 0x03},
}

// q0 and q1 are the fixed 8-bit permutations, built constructively from
// the spec's 4-bit tables.
var q0, q1 [256]byte

func buildQ(t0, t1, t2, t3 [16]byte) (q [256]byte) {
	ror4 := func(x byte, n uint) byte { return (x>>n | x<<(4-n)) & 0xf }
	for x := 0; x < 256; x++ {
		a0, b0 := byte(x)/16, byte(x)%16
		a1 := a0 ^ b0
		b1 := (a0 ^ ror4(b0, 1) ^ (a0 << 3)) & 0xf
		a2, b2 := t0[a1], t1[b1]
		a3 := a2 ^ b2
		b3 := (a2 ^ ror4(b2, 1) ^ (a2 << 3)) & 0xf
		a4, b4 := t2[a3], t3[b3]
		q[x] = b4<<4 | a4
	}
	return q
}

func init() {
	q0 = buildQ(
		[16]byte{0x8, 0x1, 0x7, 0xD, 0x6, 0xF, 0x3, 0x2, 0x0, 0xB, 0x5, 0x9, 0xE, 0xC, 0xA, 0x4},
		[16]byte{0xE, 0xC, 0xB, 0x8, 0x1, 0x2, 0x3, 0x5, 0xF, 0x4, 0xA, 0x6, 0x7, 0x0, 0x9, 0xD},
		[16]byte{0xB, 0xA, 0x5, 0xE, 0x6, 0xD, 0x9, 0x0, 0xC, 0x8, 0xF, 0x3, 0x2, 0x4, 0x7, 0x1},
		[16]byte{0xD, 0x7, 0xF, 0x4, 0x1, 0x2, 0x6, 0xE, 0x9, 0xB, 0x3, 0x0, 0x8, 0x5, 0xC, 0xA},
	)
	q1 = buildQ(
		[16]byte{0x2, 0x8, 0xB, 0xD, 0xF, 0x7, 0x6, 0xE, 0x3, 0x1, 0x9, 0x4, 0x0, 0xA, 0xC, 0x5},
		[16]byte{0x1, 0xE, 0x2, 0xB, 0x4, 0xC, 0x3, 0x7, 0x6, 0xD, 0xA, 0x5, 0xF, 0x9, 0x0, 0x8},
		[16]byte{0x4, 0xC, 0x7, 0x5, 0x1, 0x6, 0x9, 0xA, 0x0, 0xE, 0xD, 0x8, 0x2, 0xB, 0x3, 0xF},
		[16]byte{0xB, 0x9, 0x5, 0x1, 0xC, 0x3, 0xD, 0xE, 0x6, 0x4, 0x7, 0xF, 0x2, 0x0, 0x8, 0xA},
	)
}

// mdsColumn multiplies the MDS matrix by a unit vector scaled by v in byte
// position col, returning the packed little-endian column contribution.
func mdsColumn(v byte, col int) uint32 {
	var w uint32
	for row := 0; row < 4; row++ {
		w |= uint32(gfMul(mds[row][col], v, mdsPoly)) << (8 * row)
	}
	return w
}

// hByte runs the k=2 q-permutation chain for output byte i of h.
func hByte(i int, x, l0, l1 byte) byte {
	// Outer/middle/inner q selections for k=2, per the spec's h diagram.
	switch i {
	case 0:
		return q1[q0[q0[x]^l1]^l0]
	case 1:
		return q0[q0[q1[x]^l1]^l0]
	case 2:
		return q1[q1[q0[x]^l1]^l0]
	default:
		return q0[q1[q1[x]^l1]^l0]
	}
}

// h is the full h function for k=2: the q chain on each byte of x keyed by
// words l0 (outer) and l1 (inner), then the MDS matrix.
func h(x uint32, l0, l1 uint32) uint32 {
	var out uint32
	for i := 0; i < 4; i++ {
		z := hByte(i, byte(x>>(8*i)), byte(l0>>(8*i)), byte(l1>>(8*i)))
		out ^= mdsColumn(z, i)
	}
	return out
}

// QTables exposes the two fixed 8-bit permutations (static data for the
// AXP64 setup program).
func QTables() (a, b [256]byte) { return q0, q1 }

// MdsColumns returns mdsCol[i][v] = the packed MDS contribution of value v
// in byte position i — the static tables the setup program composes with
// the q chains.
func MdsColumns() (out [4][256]uint32) {
	for i := 0; i < 4; i++ {
		for v := 0; v < 256; v++ {
			out[i][v] = mdsColumn(byte(v), i)
		}
	}
	return out
}

// RSMatrix exposes the Reed-Solomon matrix used by the key schedule.
func RSMatrix() [4][8]byte { return rs }

// RSPoly is the GF(2^8) reduction polynomial of the RS code.
const RSPoly = rsPoly

// Twofish is a keyed instance.
type Twofish struct {
	k    [8 + 2*rounds]uint32 // whitening + round subkeys
	sbox [4][256]uint32       // full-keying tables: g(x) = ^ sbox[i][byte i]
}

// New returns a Twofish instance keyed with a 16-byte key.
func New(key []byte) (*Twofish, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("twofish: key must be %d bytes, got %d", KeySize, len(key))
	}
	tf := &Twofish{}
	m0 := binary.LittleEndian.Uint32(key[0:])
	m1 := binary.LittleEndian.Uint32(key[4:])
	m2 := binary.LittleEndian.Uint32(key[8:])
	m3 := binary.LittleEndian.Uint32(key[12:])
	// RS-derived words S0 (first 8 key bytes), S1 (last 8); g uses them in
	// reversed order (S1 outer... i.e. l0 = S1? no: g(x) = h(x, (S1,S0))
	// with S1 as the first/outer word).
	var s [2]uint32
	for half := 0; half < 2; half++ {
		for row := 0; row < 4; row++ {
			var acc byte
			for col := 0; col < 8; col++ {
				acc ^= gfMul(rs[row][col], key[8*half+col], rsPoly)
			}
			s[half] |= uint32(acc) << (8 * row)
		}
	}
	// Round subkeys.
	const rho = 0x01010101
	for i := 0; i < 4+rounds; i++ {
		a := h(uint32(2*i)*rho, m0, m2)
		b := bits.RotateLeft32(h(uint32(2*i+1)*rho, m1, m3), 8)
		tf.k[2*i] = a + b
		tf.k[2*i+1] = bits.RotateLeft32(a+2*b, 9)
	}
	// Full-keying tables: fold the key-dependent q chains and MDS into
	// four 256-entry word tables, so g is 4 lookups + 3 XORs.
	for i := 0; i < 4; i++ {
		l0 := byte(s[1] >> (8 * i)) // outer key byte (S1 first)
		l1 := byte(s[0] >> (8 * i))
		for x := 0; x < 256; x++ {
			tf.sbox[i][x] = mdsColumn(hByte(i, byte(x), l0, l1), i)
		}
	}
	return tf, nil
}

// g is the round function: four key-dependent table lookups XORed.
func (tf *Twofish) g(x uint32) uint32 {
	return tf.sbox[0][x&0xff] ^ tf.sbox[1][x>>8&0xff] ^
		tf.sbox[2][x>>16&0xff] ^ tf.sbox[3][x>>24]
}

// Keys exposes the subkey array; Tables exposes the full-keying tables.
// Both are consumed by the AXP64 kernels.
func (tf *Twofish) Keys() [8 + 2*rounds]uint32 { return tf.k }

// Tables returns the four key-dependent lookup tables.
func (tf *Twofish) Tables() *[4][256]uint32 { return &tf.sbox }

// BlockSize implements ciphers.Block.
func (tf *Twofish) BlockSize() int { return BlockSize }

// Encrypt implements ciphers.Block.
func (tf *Twofish) Encrypt(dst, src []byte) {
	a := binary.LittleEndian.Uint32(src[0:]) ^ tf.k[0]
	b := binary.LittleEndian.Uint32(src[4:]) ^ tf.k[1]
	c := binary.LittleEndian.Uint32(src[8:]) ^ tf.k[2]
	d := binary.LittleEndian.Uint32(src[12:]) ^ tf.k[3]
	for r := 0; r < rounds; r++ {
		t0 := tf.g(a)
		t1 := tf.g(bits.RotateLeft32(b, 8))
		c = bits.RotateLeft32(c^(t0+t1+tf.k[8+2*r]), -1)
		d = bits.RotateLeft32(d, 1) ^ (t0 + 2*t1 + tf.k[9+2*r])
		a, b, c, d = c, d, a, b
	}
	// The output is taken with the last swap undone, then whitened.
	binary.LittleEndian.PutUint32(dst[0:], c^tf.k[4])
	binary.LittleEndian.PutUint32(dst[4:], d^tf.k[5])
	binary.LittleEndian.PutUint32(dst[8:], a^tf.k[6])
	binary.LittleEndian.PutUint32(dst[12:], b^tf.k[7])
}

// Decrypt implements ciphers.Block.
func (tf *Twofish) Decrypt(dst, src []byte) {
	c := binary.LittleEndian.Uint32(src[0:]) ^ tf.k[4]
	d := binary.LittleEndian.Uint32(src[4:]) ^ tf.k[5]
	a := binary.LittleEndian.Uint32(src[8:]) ^ tf.k[6]
	b := binary.LittleEndian.Uint32(src[12:]) ^ tf.k[7]
	for r := rounds - 1; r >= 0; r-- {
		a, b, c, d = c, d, a, b // undo the round's swap first
		t0 := tf.g(a)
		t1 := tf.g(bits.RotateLeft32(b, 8))
		c = bits.RotateLeft32(c, 1) ^ (t0 + t1 + tf.k[8+2*r])
		d = bits.RotateLeft32(d^(t0+2*t1+tf.k[9+2*r]), -1)
	}
	binary.LittleEndian.PutUint32(dst[0:], a^tf.k[0])
	binary.LittleEndian.PutUint32(dst[4:], b^tf.k[1])
	binary.LittleEndian.PutUint32(dst[8:], c^tf.k[2])
	binary.LittleEndian.PutUint32(dst[12:], d^tf.k[3])
}
