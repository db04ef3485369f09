package experiment

import "testing"

func TestProtectionExperiment(t *testing.T) {
	res, err := RunProtection(bg, RunConfig{Seed: 77}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 {
		t.Fatal("no runs")
	}
	// Médard trees must survive every single-link worst case by
	// construction on biconnected graphs.
	if res.RedundantCoverage < 0.999 {
		t.Errorf("redundant-tree coverage = %.3f, want 1.0", res.RedundantCoverage)
	}
	// Dependable connections cover most but not necessarily all (backup and
	// primary share the first hop only when forced; worst cases target the
	// source-incident link of the primary, which disjoint backups avoid).
	if res.DependableCoverage < 0.8 {
		t.Errorf("dependable coverage = %.3f suspiciously low", res.DependableCoverage)
	}
	// Reactive schemes have positive RD; SMRP below SPF.
	if res.RDSMRP.Mean <= 0 || res.RDSPF.Mean <= 0 {
		t.Error("reactive RD must be positive")
	}
	if res.RDSMRP.Mean >= res.RDSPF.Mean {
		t.Errorf("SMRP RD %.3f should beat SPF %.3f", res.RDSMRP.Mean, res.RDSPF.Mean)
	}
	// Preplanned protection costs more than one tree.
	if res.CostRedundant.Mean <= 1 || res.CostDependable.Mean <= 1 {
		t.Errorf("preplanned costs = %.3f / %.3f, want > 1x SPF",
			res.CostRedundant.Mean, res.CostDependable.Mean)
	}
	if res.Render() == "" {
		t.Error("Render empty")
	}
}
