package experiment

import (
	"strings"
	"testing"

	"smrp/internal/core"
	"smrp/internal/graph"
)

// Reduced scenario counts keep the test suite fast; the full paper-scale
// counts run in the benchmark harness.
const (
	testTopo = 3
	testSets = 2
)

func TestGenScenariosValidation(t *testing.T) {
	b := DefaultBase()
	b.N = 1
	if _, err := GenScenarios(b, 1, 1, 0); err == nil {
		t.Error("tiny N should fail")
	}
	b2 := DefaultBase()
	b2.NG = b2.N
	if _, err := GenScenarios(b2, 1, 1, 0); err == nil {
		t.Error("NG >= N should fail")
	}
	if _, err := GenScenarios(DefaultBase(), 0, 1, 0); err == nil {
		t.Error("zero topologies should fail")
	}
}

func TestGenScenariosShapeAndDeterminism(t *testing.T) {
	b := DefaultBase()
	s1, err := GenScenarios(b, 2, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 6 {
		t.Fatalf("scenarios = %d, want 6", len(s1))
	}
	s2, err := GenScenarios(b, 2, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i].Source != s2[i].Source {
			t.Errorf("scenario %d source differs", i)
		}
		for j := range s1[i].Members {
			if s1[i].Members[j] != s2[i].Members[j] {
				t.Errorf("scenario %d member %d differs", i, j)
			}
		}
	}
	// Members are distinct and exclude the source.
	for _, sc := range s1 {
		seen := map[int]bool{int(sc.Source): true}
		for _, m := range sc.Members {
			if seen[int(m)] {
				t.Fatalf("duplicate/source member %d", m)
			}
			seen[int(m)] = true
		}
		if len(sc.Members) != b.NG {
			t.Errorf("member count = %d", len(sc.Members))
		}
	}
}

func TestEvaluateProducesConsistentObservations(t *testing.T) {
	b := DefaultBase()
	scenarios, err := GenScenarios(b, 1, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(scenarios[0], b.SMRP)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != b.NG {
		t.Fatalf("observations = %d", len(res.Members))
	}
	if res.CostSPF <= 0 || res.CostSMRP <= 0 {
		t.Errorf("costs = %v, %v", res.CostSPF, res.CostSMRP)
	}
	for _, o := range res.Members {
		if o.DelaySPF <= 0 || o.DelaySMRP <= 0 {
			t.Errorf("member %d: non-positive delay", o.Member)
		}
		// SMRP trades delay away, never gains it (both trees are delay
		// graphs over the same topology; SPF is optimal).
		if o.DelaySMRP < o.DelaySPF-1e-9 {
			t.Errorf("member %d: SMRP delay %v below SPF optimum %v",
				o.Member, o.DelaySMRP, o.DelaySPF)
		}
		if !o.Recoverable {
			continue
		}
		if o.RDGlobalSPF <= 0 || o.RDLocalSMRP <= 0 || o.RDLocalSPF <= 0 {
			t.Errorf("member %d: non-positive RD", o.Member)
		}
		// On the same (SPF) tree, the local detour is never longer than the
		// global one.
		if o.RDLocalSPF > o.RDGlobalSPF+1e-9 {
			t.Errorf("member %d: local-on-SPF %v exceeds global %v",
				o.Member, o.RDLocalSPF, o.RDGlobalSPF)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := RunFig7(bg, RunConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no scatter points")
	}
	// The paper's qualitative claims: most points below the diagonal and a
	// clearly positive mean reduction.
	if res.BelowDiagonal < 0.6 {
		t.Errorf("below-diagonal fraction = %.2f, want > 0.6", res.BelowDiagonal)
	}
	if res.MeanReduction <= 0.05 {
		t.Errorf("mean reduction = %.3f, want clearly positive", res.MeanReduction)
	}
	if !strings.Contains(res.Render(), "Figure 7") {
		t.Error("Render should include the figure title")
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := RunFig8(bg, RunConfig{Seed: 33}, testTopo, testSets)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(Fig8DThreshValues) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// RD gain grows with D_thresh; penalties grow with D_thresh; everything
	// stays positive.
	for i, row := range res.Rows {
		if row.RDRel.Mean <= 0 {
			t.Errorf("Dthresh %s: RD_rel %.3f not positive", row.Label, row.RDRel.Mean)
		}
		if row.DelayRel.Mean < -1e-9 {
			t.Errorf("Dthresh %s: negative delay penalty", row.Label)
		}
		if i > 0 && row.RDRel.Mean < res.Rows[i-1].RDRel.Mean-0.1 {
			t.Errorf("RD_rel dropped sharply between %s and %s",
				res.Rows[i-1].Label, row.Label)
		}
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.RDRel.Mean <= first.RDRel.Mean {
		t.Errorf("RD_rel should grow with D_thresh: %.3f → %.3f",
			first.RDRel.Mean, last.RDRel.Mean)
	}
	if last.DelayRel.Mean <= first.DelayRel.Mean {
		t.Errorf("delay penalty should grow with D_thresh: %.3f → %.3f",
			first.DelayRel.Mean, last.DelayRel.Mean)
	}
	if !strings.Contains(res.Render(), "D_thresh") {
		t.Error("Render output malformed")
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := RunFig9(bg, RunConfig{Seed: 44}, testTopo, testSets)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(Fig9AlphaValues) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Degree grows with alpha; RD gain stays positive throughout and tends
	// to shrink at high connectivity.
	for i, row := range res.Rows {
		if row.RDRel.Mean <= 0 {
			t.Errorf("alpha %s: RD_rel %.3f not positive", row.Label, row.RDRel.Mean)
		}
		if i > 0 && row.AvgDegree <= res.Rows[i-1].AvgDegree {
			t.Errorf("avg degree should grow with alpha (%s → %s)",
				res.Rows[i-1].Label, row.Label)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := RunFig10(bg, RunConfig{Seed: 55}, testTopo, testSets)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(Fig10GroupSizes) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper: performance held steadily across group sizes.
	for _, row := range res.Rows {
		if row.RDRel.Mean <= 0 {
			t.Errorf("NG %s: RD_rel %.3f not positive", row.Label, row.RDRel.Mean)
		}
		if row.DelayRel.Mean > 0.3 {
			t.Errorf("NG %s: delay penalty %.3f implausibly large", row.Label, row.DelayRel.Mean)
		}
	}
}

func TestDegree10Shape(t *testing.T) {
	res, err := RunDegree10(bg, RunConfig{Seed: 66}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Rows[len(res.Rows)-1]
	if last.AvgDegree < 7 {
		t.Errorf("high-connectivity study should reach degree ≈10, got %.1f", last.AvgDegree)
	}
	if last.RDRel.Mean <= 0 {
		t.Errorf("RD gain should persist at high connectivity, got %.3f", last.RDRel.Mean)
	}
}

// TestAblationsSPFMisses pins that the ablation's configurations share each
// scenario's healthy SPF trees, the only trees the cache holds: all six rows
// together miss the cache no more often than one configuration evaluated
// alone over the same scenarios. It reads the process-wide counters, so it
// must not run in parallel.
func TestAblationsSPFMisses(t *testing.T) {
	rc := RunConfig{Seed: 77, Workers: 1}
	scenarios, err := GenScenarios(DefaultBase(), testTopo, testSets, rc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	before := graph.SPFCounters()
	if _, err := evaluateAll(bg, rc, scenarios, core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	one := graph.SPFCounters().Sub(before).CacheMisses
	before = graph.SPFCounters()
	if _, err := RunAblations(bg, rc, testTopo, testSets); err != nil {
		t.Fatal(err)
	}
	if all := graph.SPFCounters().Sub(before).CacheMisses; all > one {
		t.Errorf("ablations missed the SPF cache %d times, one configuration alone %d", all, one)
	}
}

func TestAblations(t *testing.T) {
	res, err := RunAblations(bg, RunConfig{Seed: 77}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]AblationRow{}
	for _, r := range res.Rows {
		rows[r.Name] = r
	}
	full, ok := rows["smrp-full"]
	if !ok {
		t.Fatal("missing smrp-full row")
	}
	// Deferred SHR must match metrics but flip the overhead profile.
	def := rows["deferred-shr"]
	if def.RDRel.Mean != full.RDRel.Mean {
		t.Errorf("deferred SHR changed RD_rel: %.4f vs %.4f", def.RDRel.Mean, full.RDRel.Mean)
	}
	if def.SHRUpdates != 0 || full.SHRComputes != 0 {
		t.Errorf("overhead profile wrong: def-updates=%.1f full-computes=%.1f",
			def.SHRUpdates, full.SHRComputes)
	}
	if def.SHRComputes == 0 || full.SHRUpdates == 0 {
		t.Error("overhead counters missing")
	}
	// Query scheme sends messages; full knowledge does not.
	if rows["query-scheme"].QueryMsgs == 0 || full.QueryMsgs != 0 {
		t.Error("query-message accounting wrong")
	}
	// No-reshaping performs no reshapes.
	if rows["no-reshaping"].Reshapes != 0 {
		t.Error("no-reshaping variant still reshaped")
	}
	// Local detours help even on the SPF tree, but the SMRP tree helps more
	// than the raw strategy alone on average.
	if rows["detour-on-spf-tree"].RDRel.Mean <= 0 {
		t.Error("local detour on SPF tree should still be positive")
	}
	if res.Render() == "" {
		t.Error("Render should produce output")
	}
}

func TestLatencyExperiment(t *testing.T) {
	res, err := RunLatency(bg, RunConfig{Seed: 88}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios == 0 {
		t.Fatal("no scenarios measured")
	}
	if res.SMRPLatency.Mean <= 0 || res.SPFLatency.Mean <= 0 {
		t.Error("latencies must be positive")
	}
	if res.Speedup <= 1 {
		t.Errorf("local detours should beat reconvergence-gated recovery, speedup = %.2f", res.Speedup)
	}
	if !strings.Contains(res.Render(), "speedup") {
		t.Error("Render output malformed")
	}
}

func TestHierarchyExperiment(t *testing.T) {
	res, err := RunHierarchy(bg, RunConfig{Seed: 99}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 {
		t.Fatal("no runs measured")
	}
	if res.ScopeHier.Mean >= res.ScopeFlat.Mean {
		t.Errorf("hierarchical scope %.1f should be below flat %.1f",
			res.ScopeHier.Mean, res.ScopeFlat.Mean)
	}
	if res.DelayStretch.Mean < 1-1e-9 {
		t.Errorf("delay stretch %.3f below 1 is impossible", res.DelayStretch.Mean)
	}
	if res.Render() == "" {
		t.Error("Render should produce output")
	}
}
