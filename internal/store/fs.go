package store

import (
	"os"
	"time"
)

// FS is the filesystem surface the store runs on. Production uses osFS
// (the real filesystem); the chaos tests substitute check.FaultFS, which
// wraps a real FS and injects read/write/rename errors, torn writes and
// ENOSPC at deterministic points — the interface is the seam that makes
// every store fault class testable without root privileges or a failing
// disk. The method set is deliberately the store's exact needs, nothing
// more, so a fault injector has to model only operations that matter.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	// WriteFile creates (or truncates) name and writes the parts to it
	// back to back, so an entry's header and payload land without being
	// joined in memory first. The store only ever targets fresh temp
	// names, so an implementation may assume the file is new.
	WriteFile(name string, perm os.FileMode, parts ...[]byte) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Chtimes(name string, atime, mtime time.Time) error
}

// osFS is the production FS: thin pass-throughs to package os.
type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }

// WriteFile is os.WriteFile over several parts: one Write per part, and
// the first error of the writes and the Close.
func (osFS) WriteFile(name string, perm os.FileMode, parts ...[]byte) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err = f.Write(p); err != nil {
			break
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}

// OsFS returns the production filesystem implementation (the one Open
// uses). Exposed so tests can wrap it in a fault injector and hand the
// result to OpenFS.
func OsFS() FS { return osFS{} }
