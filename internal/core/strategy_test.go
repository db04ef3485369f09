package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"smrp/internal/failure"
	"smrp/internal/topology"
)

// fakeStrategy records what its session hands it and recovers through the
// session's own reconcile engine. Like every strategy, it refuses to recover
// before Precompute has bound it.
type fakeStrategy struct {
	bound    *Session
	binds    int
	recovers [][]failure.Failure
	last     *HealReport
}

func (f *fakeStrategy) Name() string { return "fake" }

func (f *fakeStrategy) Precompute(s *Session) error {
	f.bound = s
	f.binds++
	return nil
}

func (f *fakeStrategy) Recover(fs []failure.Failure) (*HealReport, error) {
	if f.bound == nil {
		return nil, fmt.Errorf("fake strategy: %w", ErrUnboundStrategy)
	}
	f.recovers = append(f.recovers, fs)
	rep, err := f.bound.reconcile(fs)
	f.last = rep
	return rep, err
}

func (f *fakeStrategy) StateBytes() int64 { return 0 }

// TestStrategyDispatch verifies the seam's plumbing: NewSession binds the
// configured strategy, every tree mutation re-invokes its Precompute, Recover
// and Reconcile reach its Recover with the failure batch (nil for a
// Reconcile) and return its report, and an unbound strategy reports
// ErrUnboundStrategy.
func TestStrategyDispatch(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeStrategy{}
	cfg := DefaultConfig()
	cfg.Strategy = fake
	s, err := NewSession(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fake.bound != s || fake.binds != 1 {
		t.Fatalf("after NewSession: bound to %p (session %p), %d binds; want the session, 1", fake.bound, s, fake.binds)
	}
	if _, err := s.Join(4); err != nil { // S→A→D
		t.Fatal(err)
	}
	if fake.binds != 2 {
		t.Errorf("after a join: %d binds, want 2", fake.binds)
	}

	cut := failure.LinkDown(1, 4)
	rep, err := s.Recover(cut)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]failure.Failure{{cut}}; !reflect.DeepEqual(fake.recovers, want) {
		t.Fatalf("strategy saw %v, want %v", fake.recovers, want)
	}
	if rep != fake.last {
		t.Error("Recover did not return the strategy's report")
	}
	if !s.Tree().IsMember(4) {
		t.Error("member 4 not restored through the strategy")
	}
	if _, err := s.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if len(fake.recovers) != 2 || fake.recovers[1] != nil {
		t.Errorf("Reconcile reached the strategy with %v, want a nil batch", fake.recovers[1:])
	}

	if _, err := (&fakeStrategy{}).Recover(nil); !errors.Is(err, ErrUnboundStrategy) {
		t.Errorf("unbound Recover error = %v, want ErrUnboundStrategy", err)
	}
}
