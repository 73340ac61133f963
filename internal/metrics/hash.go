package metrics

import (
	"fmt"
	"hash/fnv"
)

// HashKey returns the FNV-1a 64-bit content hash (16 hex digits) of an
// ordered field list, writing a zero-byte separator after each field so
// adjacent fields cannot alias ("a","bc" != "ab","c"). The persistent
// store (internal/store) derives every key with it.
func HashKey(fields ...string) string {
	h := fnv.New64a()
	for _, s := range fields {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
