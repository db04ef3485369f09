package experiment

import "testing"

func TestNLevelExperiment(t *testing.T) {
	res, err := RunNLevel(bg, RunConfig{Seed: 55}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 {
		t.Fatal("no runs")
	}
	if res.Levels != 3 {
		t.Errorf("levels = %d", res.Levels)
	}
	if res.ScopeLeaf.Mean >= res.ScopeFlat.Mean {
		t.Errorf("leaf scope %.1f should be far below flat %.1f",
			res.ScopeLeaf.Mean, res.ScopeFlat.Mean)
	}
	// At 3 levels the shrink should beat the 2-level 4.3x.
	if res.ScopeFlat.Mean/res.ScopeLeaf.Mean < 4 {
		t.Errorf("scope shrink %.1fx too small for a 3-level hierarchy",
			res.ScopeFlat.Mean/res.ScopeLeaf.Mean)
	}
	if res.Render() == "" {
		t.Error("Render empty")
	}
}
