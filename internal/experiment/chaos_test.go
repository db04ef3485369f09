package experiment

import (
	"context"
	"testing"
)

// TestChaosAcceptance is the harness's acceptance gate: 200 seeded
// multi-failure schedules must produce zero invariant violations and
// exercise the multi-failure machinery. (That the aggregate is byte-identical
// on 1 worker and 8 is the chaos row of
// TestStudiesDeterministicAcrossWorkerCounts, at the same size and seed.)
func TestChaosAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos acceptance is a long test")
	}
	seq, err := RunChaos(bg, RunConfig{Seed: 2005}, 200)
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if len(seq.Violations) > 0 {
		t.Errorf("invariant violations: %d", len(seq.Violations))
		for i, v := range seq.Violations {
			if i == 10 {
				t.Errorf("… %d more", len(seq.Violations)-10)
				break
			}
			t.Error(v)
		}
	}

	// Sanity: the schedules actually exercised the multi-failure machinery.
	if seq.Failures == 0 || seq.Repairs == 0 {
		t.Errorf("degenerate schedule mix: failures=%d repairs=%d", seq.Failures, seq.Repairs)
	}
	if seq.Parks == 0 || seq.Readmissions == 0 {
		t.Errorf("degraded-state machinery never exercised: parks=%d readmissions=%d", seq.Parks, seq.Readmissions)
	}
	if seq.Restorations == 0 {
		t.Errorf("protocol never restored a member: restorations=%d", seq.Restorations)
	}
}

// TestChaosCancellation verifies that a cancelled context aborts the sweep
// with ctx.Err() instead of running all trials.
func TestChaosCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := RunChaos(ctx, RunConfig{Seed: 2005}, 50); err != context.Canceled {
		t.Fatalf("RunChaos(cancelled) error = %v, want context.Canceled", err)
	}
}
