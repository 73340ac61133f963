package harness

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
)

// Signal-driven shutdown for the long-running commands. The first
// SIGINT/SIGTERM cancels the run context — the supervised sweep dispatches
// no further cell and lets the running ones finish, the caller flushes,
// and the process exits with ExitInterrupt; running the same command
// again resumes from the persistent store. A second signal means the user
// is done waiting: the force callback runs (typically os.Exit(ExitForced))
// without any further cleanup.

// Process exit codes shared by the commands. 130 follows the shell
// convention for SIGINT termination (128+2); 131 marks the forced
// second-signal exit that skipped cleanup.
const (
	ExitOK        = 0
	ExitError     = 1
	ExitUsage     = 2
	ExitPoisoned  = 5 // run completed, but one or more cells failed or panicked
	ExitInterrupt = 130
	ExitForced    = 131
)

// NotifyInterrupt returns a context cancelled by the first SIGINT/SIGTERM
// and a stop function that releases the signal handler (idempotent,
// always safe to defer). A second signal invokes force on the handler
// goroutine.
func NotifyInterrupt(parent context.Context, force func(sig os.Signal)) (context.Context, func()) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-ch:
			cancel()
		case <-done:
			return
		}
		select {
		case sig := <-ch:
			if force != nil {
				force(sig)
			}
		case <-done:
		}
	}()
	var stopOnce bool
	stop := func() {
		if stopOnce {
			return
		}
		stopOnce = true
		signal.Stop(ch)
		close(done)
		cancel()
	}
	return ctx, stop
}

// StartCPUProfile starts a CPU profile written to path and returns the
// function that stops it and closes the file; an empty path profiles
// nothing. Commands start it right after flag parsing and defer the stop,
// so a run that winds down to ExitInterrupt still writes a complete
// profile; the forced ExitForced path skips it along with other cleanup.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		return nil
	}, nil
}
