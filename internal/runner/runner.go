// Package runner fans independent simulation points across a worker pool.
//
// Every experiment in the figure suite is a grid of {mode × workload ×
// load-point} runs that share nothing: each point builds its own Machine,
// engine, and RNG. The runner exploits that: points execute on up to
// NumCPU goroutines, and determinism is preserved by construction — each
// point's seed is derived by Seed from the base seed and a seed index the
// experiment assigns to the point, so the result of a point is a pure
// function of the point regardless of which worker runs it or in what
// order points complete. A sweep rendered with workers=1 and workers=N is
// byte-identical.
//
// Each simulation run stays single-threaded internally; parallelism is
// strictly across points. That keeps the event engine free of locks on its
// hot path and makes worker count a pure wall-clock knob.
package runner

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWorkers is the environment variable consulted when no explicit
// worker count is given.
const EnvWorkers = "ASTRIFLASH_WORKERS"

// Workers resolves a worker count: an explicit positive value wins, then
// the ASTRIFLASH_WORKERS environment variable, then runtime.NumCPU().
func Workers(explicit int) int {
	if explicit > 0 {
		return explicit
	}
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.NumCPU()
}

// Seed derives the RNG seed for sweep point index from base, using the
// splitmix64 finalizer so adjacent indices yield decorrelated streams.
// The derivation depends only on (base, index) — never on scheduling —
// which is the contract that makes parallel sweeps bit-reproducible.
func Seed(base uint64, index int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		// Seed 0 means "use the default" throughout the simulator's
		// option plumbing; remap to keep the derived seed effective.
		z = 0x9e3779b97f4a7c15
	}
	return z
}

// PanicError is a panic from one sweep point, converted into an ordinary
// error: the experiment fails with the point identified and the original
// stack attached, instead of one pathological point killing the whole
// process with an unattributed traceback from inside a worker goroutine.
type PanicError struct {
	// Index is the sweep point whose fn panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("runner: sweep point %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// call invokes fn(i), converting a panic into a *PanicError.
func call[T any](i int, fn func(i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Map runs fn(i) for every index in [0, n) across workers goroutines and
// returns the results in index order. fn must be safe for concurrent
// invocation on distinct indices. The first error (by completion order)
// cancels unstarted points and is returned; points already running finish.
// A panic inside fn is recovered and surfaced as a *PanicError naming the
// point, not a process crash.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Inline fast path: identical semantics, no goroutines, so the
		// workers=1 arm of the determinism contract is trivially the
		// sequential order.
		for i := 0; i < n; i++ {
			v, err := call(i, fn)
			if err != nil {
				return nil, err
			}
			results[i] = v
		}
		return results, nil
	}

	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		firstEr error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				v, err := call(i, fn)
				if err != nil {
					errOnce.Do(func() { firstEr = err })
					failed.Store(true)
					return
				}
				results[i] = v
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return results, nil
}
