package check

import (
	"bytes"
	"os"
	"sync"
	"syscall"
	"time"
)

// Filesystem fault injection. The persistent store runs on a narrow
// filesystem interface; FaultFS implements the same method set (check is
// a leaf, so the interface is mirrored structurally rather than imported)
// over a delegate filesystem and injects faults at deterministic points:
// read/write/rename errors, torn writes that persist only a prefix, and
// ENOSPC. Each planted fault is Noted on the owning Injector, so chaos
// tests can assert exactly which fault classes fired and map each to the
// mechanism that must detect or absorb it.

const (
	// FaultFSRead fails ReadFile calls — detected by the store's
	// retry/backoff path, degrading to recompute when persistent.
	FaultFSRead FaultClass = "fs-read"
	// FaultFSWrite fails WriteFile calls — write-through persistence is
	// retried, then dropped (the store degrades; simulation continues).
	FaultFSWrite FaultClass = "fs-write"
	// FaultFSRename fails the rename into place — the atomic-write path
	// must remove its temp file immediately and leave no residue.
	FaultFSRename FaultClass = "fs-rename"
	// FaultFSTorn makes WriteFile persist only a prefix while reporting
	// success — detected by the entry header/checksum on the next load,
	// which deletes the entry and re-records once.
	FaultFSTorn FaultClass = "fs-torn-write"
	// FaultFSFull makes WriteFile fail with ENOSPC — classified as a
	// deterministic fault: no retry, immediate graceful degradation.
	FaultFSFull FaultClass = "fs-enospc"
)

// FSOps is the filesystem surface FaultFS wraps: the store's FS interface,
// mirrored here field-for-field so the two stay structurally identical
// without an import edge from this leaf package.
type FSOps interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, perm os.FileMode, parts ...[]byte) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Chtimes(name string, atime, mtime time.Time) error
}

// fsPlan schedules one fault class: skip the first `after` matching calls,
// then fire on the next `times` of them (-1 = every one from then on).
type fsPlan struct {
	after int
	times int
	err   error
	calls int
}

// FaultFS is a fault-injecting filesystem. All methods are safe for
// concurrent use; un-faulted operations pass straight through to the
// delegate.
type FaultFS struct {
	in *Injector
	fs FSOps

	mu    sync.Mutex
	plans map[FaultClass]*fsPlan
}

// NewFaultFS wraps fs with fault injection owned by in (which logs every
// fired fault via Note). With no plans armed it is a transparent proxy.
func (in *Injector) NewFaultFS(fs FSOps) *FaultFS {
	return &FaultFS{in: in, fs: fs, plans: make(map[FaultClass]*fsPlan)}
}

// Plan arms a fault class: the first `after` matching operations succeed,
// the following `times` fail with err (times = -1 means forever). err is
// ignored for FaultFSTorn (a torn write reports success); nil defaults to
// ENOSPC for FaultFSFull and EIO for the error-returning classes.
func (f *FaultFS) Plan(class FaultClass, after, times int, err error) {
	if err == nil {
		if class == FaultFSFull {
			err = syscall.ENOSPC
		} else if class != FaultFSTorn {
			err = syscall.EIO
		}
	}
	f.mu.Lock()
	f.plans[class] = &fsPlan{after: after, times: times, err: err}
	f.mu.Unlock()
}

// fire consumes one matching call of the class: (true, err) when the
// fault triggers on this call.
func (f *FaultFS) fire(class FaultClass) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.plans[class]
	if p == nil {
		return false, nil
	}
	p.calls++
	if p.calls <= p.after || p.times == 0 {
		return false, nil
	}
	if p.times > 0 {
		p.times--
	}
	f.in.Note(class)
	return true, p.err
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error { return f.fs.MkdirAll(path, perm) }
func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error)   { return f.fs.ReadDir(name) }
func (f *FaultFS) Remove(name string) error                     { return f.fs.Remove(name) }
func (f *FaultFS) Chtimes(name string, atime, mtime time.Time) error {
	return f.fs.Chtimes(name, atime, mtime)
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if hit, err := f.fire(FaultFSRead); hit {
		return nil, err
	}
	return f.fs.ReadFile(name)
}

// WriteFile applies the write-side fault classes to the whole file, not
// to each part.
func (f *FaultFS) WriteFile(name string, perm os.FileMode, parts ...[]byte) error {
	if hit, _ := f.fire(FaultFSTorn); hit {
		// Persist only the first half of the parts' concatenation and
		// report success: the torn entry must be caught by the reader's
		// header/checksum verification.
		data := bytes.Join(parts, nil)
		return f.fs.WriteFile(name, perm, data[:len(data)/2])
	}
	if hit, err := f.fire(FaultFSFull); hit {
		return err
	}
	if hit, err := f.fire(FaultFSWrite); hit {
		return err
	}
	return f.fs.WriteFile(name, perm, parts...)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if hit, err := f.fire(FaultFSRename); hit {
		return err
	}
	return f.fs.Rename(oldpath, newpath)
}
