package experiment

import (
	"context"
	"testing"

	"smrp/internal/graph"
	"smrp/internal/mrc"
)

// TestStrategiesAcceptance is the acceptance gate for the comparative
// restoration testbed: 200 seeded chaos schedules played three-way (SMRP,
// MRC backup configurations, precomputed detours) must produce zero
// invariant violations in every arm. (That the aggregate is byte-identical
// on 1 worker and 8 is the strategies row of
// TestStudiesDeterministicAcrossWorkerCounts, at the same size and seed.)
func TestStrategiesAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("strategies acceptance is a long test")
	}
	seq, err := RunStrategies(bg, RunConfig{Seed: 2005}, 200)
	if err != nil {
		t.Fatalf("RunStrategies: %v", err)
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

	checkStrategiesSanity(t, seq)
}

// TestStrategiesSmoke is the short-mode gate: a reduced three-way run must
// stay violation-free and exhibit each strategy's defining signature.
func TestStrategiesSmoke(t *testing.T) {
	res, err := RunStrategies(bg, RunConfig{Seed: 2005}, 15)
	if err != nil {
		t.Fatalf("RunStrategies: %v", err)
	}
	if len(res.Violations) > 0 {
		t.Errorf("invariant violations: %d (first: %s)", len(res.Violations), res.Violations[0])
	}
	checkStrategiesSanity(t, res)
}

// TestStrategiesSPFMisses pins that the arms share their topology's healthy
// SPF tree instead of costing each other misses: the cache holds only
// healthy trees, and MRC's backup configurations and every tree under an
// accumulated mask are uncached full runs that count no miss. The bound still
// leaves room for a miss per trial, per MRC configuration and per event. It
// reads the process-wide counters, so it must not run in parallel, and on one
// worker the count is deterministic.
func TestStrategiesSPFMisses(t *testing.T) {
	before := graph.SPFCounters()
	res, err := RunStrategies(bg, RunConfig{Seed: 2005, Workers: 1}, 40)
	if err != nil {
		t.Fatalf("RunStrategies: %v", err)
	}
	misses := graph.SPFCounters().Sub(before).CacheMisses
	if bound := uint64(res.Trials*(1+mrc.DefaultConfigurations) + res.Events); misses > bound {
		t.Errorf("%d trials of %d events missed the SPF cache %d times, want at most %d", res.Trials, res.Events, misses, bound)
	}
}

// checkStrategiesSanity asserts the structural expectations that hold at any
// trial count: three arms in fixed order, every arm recovering members and
// exercising the park/readmit machinery, SMRP all-reactive (no precomputed
// state, no table to miss), and both baselines carrying precomputed state
// they actually consulted.
func checkStrategiesSanity(t *testing.T, res *StrategiesResult) {
	t.Helper()
	if len(res.Arms) != 3 {
		t.Fatalf("arms = %d, want 3", len(res.Arms))
	}
	for i, want := range []string{"smrp", "mrc", "detour"} {
		if res.Arms[i].Name != want {
			t.Fatalf("arm %d = %q, want %q", i, res.Arms[i].Name, want)
		}
	}
	if res.Failures == 0 || res.Repairs == 0 {
		t.Errorf("degenerate schedule mix: failures=%d repairs=%d", res.Failures, res.Repairs)
	}
	for _, a := range res.Arms {
		if a.Recovered == 0 {
			t.Errorf("%s: no member ever recovered", a.Name)
		}
		if a.Parks == 0 || a.Readmitted == 0 {
			t.Errorf("%s: degraded-state machinery never exercised: parks=%d readmitted=%d",
				a.Name, a.Parks, a.Readmitted)
		}
		if a.RD.Mean < 0 {
			t.Errorf("%s: negative mean RD %v", a.Name, a.RD.Mean)
		}
	}
	smrp, mrc, detour := res.Arms[0], res.Arms[1], res.Arms[2]
	if smrp.StateBytes != 0 || smrp.PrecomputeSettled != 0 || smrp.Fallbacks != 0 || smrp.FallbackSettled != 0 {
		t.Errorf("smrp arm must be all-reactive: state=%d precompute=%d fallbacks=%d (settled %d)",
			smrp.StateBytes, smrp.PrecomputeSettled, smrp.Fallbacks, smrp.FallbackSettled)
	}
	if smrp.RecoverySettled == 0 {
		t.Error("smrp arm settled no nodes at recovery time")
	}
	for _, a := range []StrategyArm{mrc, detour} {
		if a.StateBytes == 0 {
			t.Errorf("%s: no precomputed state accounted", a.Name)
		}
		if a.PrecomputeSettled == 0 {
			t.Errorf("%s: no precompute-time settled work accounted", a.Name)
		}
		// The baselines' point: precomputation displaces recovery-time work.
		// A recovery answered from the table sweeps nothing, so all that is
		// settled at recovery time is settled by the searches standing in for a
		// missing answer — and the table did answer. (How that total compares
		// with SMRP's is a matter of the two search engines, one unbounded
		// sweep per miss against reconnect's, not of the strategies.)
		if a.RecoverySettled != a.FallbackSettled {
			t.Errorf("%s: %d nodes settled at recovery time, %d of them by fallback searches: a table hit swept",
				a.Name, a.RecoverySettled, a.FallbackSettled)
		}
		if a.Fallbacks >= a.Recovered {
			t.Errorf("%s: %d recoveries, %d of them fallbacks: the table answered none", a.Name, a.Recovered, a.Fallbacks)
		}
	}
}

// TestStrategiesCancellation verifies that a cancelled context aborts the
// sweep with ctx.Err() instead of running all trials.
func TestStrategiesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := RunStrategies(ctx, RunConfig{Seed: 2005}, 50); err != context.Canceled {
		t.Fatalf("RunStrategies(cancelled) error = %v, want context.Canceled", err)
	}
}
