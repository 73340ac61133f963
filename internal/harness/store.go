package harness

import (
	"sync"
	"sync/atomic"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/store"
)

// This file holds the process-wide persistent result store and the kernel
// program digests its keys embed. The store keeps finished cell results
// only (experiments threads it under the sweep's run cache); traces never
// leave the process, so the trace cache records every trace it needs.

var storePtr atomic.Pointer[store.Store]

// SetStore installs the process-wide persistent store (nil, the default,
// disables persistence) and returns the previous one, so commands and
// tests can swap a store in and restore.
func SetStore(s *store.Store) (prev *store.Store) {
	return storePtr.Swap(s)
}

// CurrentStore returns the installed store, or nil when persistence is
// off.
func CurrentStore() *store.Store { return storePtr.Load() }

// digestKey names one assembled kernel program: cipher, feature level and
// kind ("encrypt", "decrypt" or "setup").
type digestKey struct {
	cipher string
	feat   isa.Feature
	kind   string
}

// digestCache memoizes kernel program digests: programs are immutable
// within a process, and hashing a few thousand instructions per cell
// request would be pointless work.
var digestCache struct {
	mu sync.Mutex
	m  map[digestKey]string
}

// KernelDigest returns the content digest of a cipher's assembled program
// of one kind ("encrypt", "decrypt" or "setup") at a feature level. The
// result store keys embed it, so any kernel edit provably invalidates
// every stored result that executed those bytes.
func KernelDigest(cipher string, feat isa.Feature, kind string) (string, error) {
	k := digestKey{cipher: cipher, feat: feat, kind: kind}
	digestCache.mu.Lock()
	d, ok := digestCache.m[k]
	digestCache.mu.Unlock()
	if ok {
		return d, nil
	}
	kern, err := kernels.Get(cipher)
	if err != nil {
		return "", err
	}
	prog, err := kern.ProgramFor(kind, feat)
	if err != nil {
		return "", err
	}
	d = store.ProgramDigest(prog)
	digestCache.mu.Lock()
	if digestCache.m == nil {
		digestCache.m = make(map[digestKey]string)
	}
	digestCache.m[k] = d
	digestCache.mu.Unlock()
	return d, nil
}
