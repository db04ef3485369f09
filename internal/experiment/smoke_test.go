package experiment

import (
	"testing"
)

// TestSmokeShapes runs a reduced Figure-8-style sweep and logs the headline
// numbers so the result shapes can be eyeballed during development. The
// real assertions live in figs_test.go.
func TestSmokeShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test")
	}
	res, err := RunFig8(bg, RunConfig{Seed: 42}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	f7, err := RunFig7(bg, RunConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fig7: mean reduction %.3f below-diag %.3f points %d",
		f7.MeanReduction, f7.BelowDiagonal, len(f7.Points))
}
