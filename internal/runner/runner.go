// Package runner is the deterministic parallel scenario-execution engine
// behind every evaluation sweep in this repository.
//
// The engine runs N independent trials on a fixed-size worker pool and
// guarantees that results are bit-identical regardless of the worker count
// or OS scheduling order:
//
//   - every trial receives its own RNG stream derived purely from
//     (baseSeed, trialIndex) via splitmix64 (see DeriveSeed), so no trial's
//     randomness depends on which worker ran it or in which order;
//   - Map collects results into a slice indexed by trial index, so callers
//     fold them in trial order — byte-identical output for any worker count.
//
// Failure semantics are deterministic too: a worker panic is converted into
// a per-trial *PanicError instead of crashing the sweep, and when trials
// fail the engine reports the error of the lowest-numbered failing trial,
// not whichever happened to be observed first.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"smrp/internal/topology"
)

// Config parameterizes a pool run.
type Config struct {
	// Workers is the fixed pool size. Values < 1 select
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the dispatch queue feeding the pool. Values < 1
	// select 2×Workers. A bounded queue keeps cancellation responsive on
	// huge sweeps: at most QueueDepth trials are committed beyond the ones
	// already executing.
	QueueDepth int
	// BaseSeed is the root of every per-trial RNG stream.
	BaseSeed uint64
}

// normalize resolves defaulted fields.
func (c Config) normalize() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 2 * c.Workers
	}
	return c
}

// Trial is the per-trial execution context handed to the user function.
type Trial struct {
	// Index is the trial's position in [0, N).
	Index int
	// Seed is the trial's derived seed: DeriveSeed(cfg.BaseSeed, Index).
	Seed uint64
	// RNG is a fresh generator seeded with Seed. Independent of worker
	// identity and scheduling, so consuming it cannot break determinism.
	RNG *topology.RNG
}

// Func is one trial's body. It must be self-contained: any state shared with
// other trials must be read-only (e.g. a generated topology with an SPF
// cache attached).
type Func[T any] func(ctx context.Context, t Trial) (T, error)

// PanicError wraps a recovered worker panic as a per-trial error.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: trial %d panicked: %v", e.Index, e.Value)
}

// TrialError attributes a trial-body error to its trial index.
type TrialError struct {
	Index int
	Err   error
}

// Error implements the error interface.
func (e *TrialError) Error() string {
	return fmt.Sprintf("runner: trial %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *TrialError) Unwrap() error { return e.Err }

// DeriveSeed maps (base, trial index) to an independent seed via splitmix64
// finalization. It is a pure function of its arguments — the foundation of
// the engine's determinism guarantee.
func DeriveSeed(base uint64, index int) uint64 {
	x := base + 0x9E3779B97F4A7C15*uint64(index+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// trial builds the execution context for one trial index.
func (c Config) trial(i int) Trial {
	seed := DeriveSeed(c.BaseSeed, i)
	return Trial{Index: i, Seed: seed, RNG: topology.NewRNG(seed)}
}

// call runs fn for one trial with panic isolation.
func call[T any](ctx context.Context, fn Func[T], t Trial) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: t.Index, Value: r, Stack: debug.Stack()}
		}
	}()
	out, err = fn(ctx, t)
	return out, err
}

// Map executes n trials on the pool and returns their results ordered by
// trial index.
//
// Error policy (deterministic): if the parent context is cancelled, Map
// stops dispatching and returns ctx's error. Otherwise every trial is
// attempted even when some fail — aborting early would make "which trials
// ran" scheduling-dependent — and Map returns the error of the
// LOWEST-numbered failing trial, wrapped in *TrialError (or *PanicError for
// panics), independent of worker count and scheduling. On error the result
// slice is still returned; entries for failed or unexecuted trials hold zero
// values. Callers that want fail-fast behaviour cancel ctx themselves.
func Map[T any](ctx context.Context, cfg Config, n int, fn Func[T]) ([]T, error) {
	cfg = cfg.normalize()
	if n < 0 {
		return nil, fmt.Errorf("runner: negative trial count %d", n)
	}
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}

	jobs := make(chan int, cfg.QueueDepth)
	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var (
		mu       sync.Mutex
		firstErr error
		firstIdx = n // lowest failing trial index seen so far
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
	}

	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					// Parent cancelled: drain the queue without running.
					continue
				}
				out, err := call(ctx, fn, cfg.trial(i))
				if err != nil {
					// Cancellation-induced errors are an artifact of the
					// caller aborting, not a property of the trial; ctx.Err()
					// is reported instead, below.
					if errors.Is(err, context.Canceled) && ctx.Err() != nil {
						continue
					}
					var pe *PanicError
					if !errors.As(err, &pe) {
						err = &TrialError{Index: i, Err: err}
					}
					record(i, err)
					continue
				}
				results[i] = out
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return results, err
	}
	if firstErr != nil {
		return results, firstErr
	}
	return results, nil
}

// MapSeq is the sequential reference implementation of Map: same trial
// contexts, same error policy (all trials attempted, lowest-index error
// reported), no goroutines. It exists so determinism tests can compare pool
// output against a known-simple baseline and so callers can bypass the pool
// entirely (Workers == 1 uses the pool but produces identical results).
func MapSeq[T any](ctx context.Context, cfg Config, n int, fn Func[T]) ([]T, error) {
	cfg = cfg.normalize()
	if n < 0 {
		return nil, fmt.Errorf("runner: negative trial count %d", n)
	}
	results := make([]T, n)
	var firstErr error
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		out, err := call(ctx, fn, cfg.trial(i))
		if err != nil {
			if firstErr == nil {
				var pe *PanicError
				if !errors.As(err, &pe) {
					err = &TrialError{Index: i, Err: err}
				}
				firstErr = err
			}
			continue
		}
		results[i] = out
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, firstErr
}
