// Package rc4 implements the RC4 stream cipher from scratch. RC4 is the
// one stream cipher in the paper's suite: a key-based random number
// generator whose state table is both read and written inside the kernel,
// which is why the SBOX instruction grew its aliased bit.
package rc4

import "fmt"

// RC4 is a keyed RC4 stream state.
type RC4 struct {
	s    [256]byte
	i, j byte
}

// New returns an RC4 instance keyed with 1..256 bytes; the paper's
// configuration uses 16 bytes (128 bits).
func New(key []byte) (*RC4, error) {
	if len(key) < 1 || len(key) > 256 {
		return nil, fmt.Errorf("rc4: key must be 1..256 bytes, got %d", len(key))
	}
	c := &RC4{}
	for i := range c.s {
		c.s[i] = byte(i)
	}
	var j byte
	for i := 0; i < 256; i++ {
		j += c.s[i] + key[i%len(key)]
		c.s[i], c.s[j] = c.s[j], c.s[i]
	}
	return c, nil
}

// XORKeyStream implements ciphers.Stream.
func (c *RC4) XORKeyStream(dst, src []byte) {
	i, j := c.i, c.j
	for n, b := range src {
		i++
		j += c.s[i]
		c.s[i], c.s[j] = c.s[j], c.s[i]
		dst[n] = b ^ c.s[c.s[i]+c.s[j]]
	}
	c.i, c.j = i, j
}

// State exposes the permutation table and indices for kernel
// initialization and validation.
func (c *RC4) State() (s [256]byte, i, j byte) { return c.s, c.i, c.j }
