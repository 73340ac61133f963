// Package ciphers defines the common block/stream cipher interfaces and
// CBC chaining for the eight symmetric-key ciphers analyzed in the paper:
// 3DES, Blowfish, IDEA, MARS, RC4, RC6, Rijndael and Twofish. The
// implementations are written from scratch in the subpackages and serve as
// the golden models against which every AXP64 kernel variant is
// validated. The cipher table (Table 1's rows and each golden model's
// constructor) is internal/kernels.
package ciphers

// Block is a block cipher with a fixed block size.
type Block interface {
	// BlockSize returns the cipher block size in bytes.
	BlockSize() int
	// Encrypt encrypts one block from src into dst (may alias).
	Encrypt(dst, src []byte)
	// Decrypt decrypts one block from src into dst (may alias).
	Decrypt(dst, src []byte)
}

// Stream is a stream cipher (RC4). XORKeyStream advances the keystream.
type Stream interface {
	XORKeyStream(dst, src []byte)
}

// CBCEncrypt encrypts src (a whole number of blocks) in chaining-block-
// cipher mode, updating iv in place to the last ciphertext block so that
// sessions may be continued. dst may alias src.
func CBCEncrypt(b Block, iv, dst, src []byte) {
	n := b.BlockSize()
	if len(src)%n != 0 {
		panic("ciphers: CBCEncrypt input not a whole number of blocks")
	}
	if len(iv) != n {
		panic("ciphers: CBCEncrypt iv length mismatch")
	}
	for off := 0; off < len(src); off += n {
		for i := 0; i < n; i++ {
			iv[i] ^= src[off+i]
		}
		b.Encrypt(iv, iv)
		copy(dst[off:off+n], iv)
	}
}

// CBCDecrypt reverses CBCEncrypt, updating iv to the last ciphertext block.
func CBCDecrypt(b Block, iv, dst, src []byte) {
	n := b.BlockSize()
	if len(src)%n != 0 {
		panic("ciphers: CBCDecrypt input not a whole number of blocks")
	}
	if len(iv) != n {
		panic("ciphers: CBCDecrypt iv length mismatch")
	}
	prev := make([]byte, n)
	copy(prev, iv)
	tmp := make([]byte, n)
	for off := 0; off < len(src); off += n {
		copy(tmp, src[off:off+n])
		b.Decrypt(dst[off:off+n], src[off:off+n])
		for i := 0; i < n; i++ {
			dst[off+i] ^= prev[i]
		}
		copy(prev, tmp)
	}
	copy(iv, prev)
}
