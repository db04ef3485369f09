package experiment

import (
	"context"
	"testing"

	"smrp/internal/graph"
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

// TestChaosSPFDeltaReduction quantifies the incremental-SPF win on the chaos
// workload, where every trial replays long failure/repair sequences whose
// masks evolve by one or two elements at a time — the delta-repair sweet
// spot. It runs the same 20 seeded schedules with the delta path disabled
// (every cache miss is a full sweep) and enabled, and requires (a) identical
// rendered results — the optimization must be invisible — and (b) at least a
// 50% reduction in nodes settled, the PR's acceptance threshold. Counters are
// process-global, so the run is pinned to one worker and the test must not
// be marked parallel.
func TestChaosSPFDeltaReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos delta-reduction is a long test")
	}
	const trials, seed = 20, 2005

	rc := RunConfig{Seed: seed, Workers: 1}
	defer graph.SetSPFDelta(true)

	graph.SetSPFDelta(false)
	before := graph.SPFCounters()
	base, err := RunChaos(bg, rc, trials)
	if err != nil {
		t.Fatalf("RunChaos(delta off): %v", err)
	}
	baseStats := graph.SPFCounters().Sub(before)

	graph.SetSPFDelta(true)
	before = graph.SPFCounters()
	fast, err := RunChaos(bg, rc, trials)
	if err != nil {
		t.Fatalf("RunChaos(delta on): %v", err)
	}
	fastStats := graph.SPFCounters().Sub(before)

	if a, b := base.Render(), fast.Render(); a != b {
		t.Errorf("chaos output differs with delta repair enabled:\n--- delta off ---\n%s--- delta on ---\n%s", a, b)
	}
	if baseStats.DeltaRuns != 0 {
		t.Errorf("delta disabled but %d delta runs recorded", baseStats.DeltaRuns)
	}
	if fastStats.DeltaRuns == 0 {
		t.Error("delta enabled but no delta repairs ran")
	}
	if baseStats.NodesSettled == 0 {
		t.Fatal("baseline settled no nodes — counter wiring broken")
	}
	reduction := 1 - float64(fastStats.NodesSettled)/float64(baseStats.NodesSettled)
	t.Logf("nodes settled: full-recompute=%d delta=%d (%.1f%% reduction; full=%d→%d delta-runs=%d)",
		baseStats.NodesSettled, fastStats.NodesSettled, 100*reduction,
		baseStats.FullRuns, fastStats.FullRuns, fastStats.DeltaRuns)
	if reduction < 0.50 {
		t.Errorf("delta repair reduced nodes settled by only %.1f%%, want >= 50%%", 100*reduction)
	}
}
