package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapMatchesSequential: pool output must be bit-identical to the
// sequential reference for several worker counts, including trials that
// consume their RNG stream.
func TestMapMatchesSequential(t *testing.T) {
	const n = 97
	fn := func(_ context.Context, tr Trial) (uint64, error) {
		// Consume a trial-dependent amount of randomness: determinism must
		// not rely on uniform consumption.
		v := tr.Seed
		for k := 0; k < tr.Index%7+1; k++ {
			v ^= tr.RNG.Uint64()
		}
		return v, nil
	}
	want, err := MapSeq(context.Background(), Config{BaseSeed: 42}, n, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 32} {
		got, err := Map(context.Background(), Config{Workers: workers, BaseSeed: 42}, n, fn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d trial %d: got %x want %x", workers, i, got[i], want[i])
			}
		}
	}
}

// TestDeriveSeedIndependence: neighbouring trial seeds must not be trivially
// related, and the map must be injective over a large index range.
func TestDeriveSeedIndependence(t *testing.T) {
	seen := make(map[uint64]int)
	for i := 0; i < 100000; i++ {
		s := DeriveSeed(2005, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("seed collision between trials %d and %d", i, j)
		}
		seen[s] = i
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("different base seeds must derive different streams")
	}
	if d := DeriveSeed(1, 1) ^ DeriveSeed(1, 2); d == 0x9E3779B97F4A7C15 {
		t.Error("adjacent seeds look linearly related; finalizer missing?")
	}
}

// TestPanicIsolation: a panicking trial becomes a *PanicError naming the
// trial; the sweep itself survives.
func TestPanicIsolation(t *testing.T) {
	fn := func(_ context.Context, tr Trial) (int, error) {
		if tr.Index == 5 {
			panic("boom")
		}
		return tr.Index, nil
	}
	_, err := Map(context.Background(), Config{Workers: 4, BaseSeed: 1}, 10, fn)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 5 || fmt.Sprint(pe.Value) != "boom" {
		t.Errorf("PanicError = {Index: %d, Value: %v}", pe.Index, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
}

// TestLowestIndexErrorWins: with many failing trials the reported error must
// name the lowest-numbered one, regardless of scheduling.
func TestLowestIndexErrorWins(t *testing.T) {
	fn := func(_ context.Context, tr Trial) (int, error) {
		if tr.Index%3 == 2 { // trials 2, 5, 8, … fail
			// Stagger completion so higher-index failures tend to land first.
			time.Sleep(time.Duration(30-tr.Index) * time.Millisecond)
			return 0, fmt.Errorf("trial %d failed", tr.Index)
		}
		return tr.Index, nil
	}
	for run := 0; run < 3; run++ {
		_, err := Map(context.Background(), Config{Workers: 8, BaseSeed: 1}, 12, fn)
		var te *TrialError
		if !errors.As(err, &te) {
			t.Fatalf("err = %v, want *TrialError", err)
		}
		if te.Index != 2 {
			t.Fatalf("reported trial %d, want lowest failing trial 2", te.Index)
		}
	}
}

// TestContextCancellation: cancelling the parent context aborts the sweep
// and reports ctx.Err().
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	fn := func(c context.Context, tr Trial) (int, error) {
		if started.Add(1) == 3 {
			cancel()
		}
		select {
		case <-c.Done():
			return 0, c.Err()
		case <-time.After(50 * time.Millisecond):
			return tr.Index, nil
		}
	}
	_, err := Map(ctx, Config{Workers: 2, QueueDepth: 1, BaseSeed: 1}, 100, fn)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n > 10 {
		t.Errorf("%d trials started after early cancel; bounded queue not limiting dispatch", n)
	}
}

// TestZeroTrials: degenerate sweeps succeed and return empty results.
func TestZeroTrials(t *testing.T) {
	res, err := Map(context.Background(), Config{}, 0, func(context.Context, Trial) (int, error) {
		t.Error("trial body must not run")
		return 0, nil
	})
	if err != nil || len(res) != 0 {
		t.Errorf("Map(0) = (%v, %v)", res, err)
	}
}

// TestDefaultsNormalize: zero-valued config picks sane pool parameters.
func TestDefaultsNormalize(t *testing.T) {
	c := Config{}.normalize()
	if c.Workers < 1 || c.QueueDepth < 1 {
		t.Errorf("normalized config %+v has non-positive fields", c)
	}
	if c.QueueDepth != 2*c.Workers {
		t.Errorf("default queue depth = %d, want %d", c.QueueDepth, 2*c.Workers)
	}
}
