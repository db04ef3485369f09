package experiment

import (
	"testing"

	"smrp/internal/topology"
)

// TestCalibrateBeta sweeps the fixed Waxman β to document how topology
// path-diversity drives the SMRP/SPF trade-off magnitudes. Run with -v to
// see the table; the assertion is only that every point keeps the paper's
// qualitative shape (positive RD gain, small positive penalties).
func TestCalibrateBeta(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	for _, beta := range []float64{0.10, 0.15, 0.20, 0.25} {
		base := DefaultBase()
		base.Beta = beta
		row, err := sweepPoint(bg, RunConfig{Seed: 99}, "b", beta, base, 4, 2)
		if err != nil {
			t.Fatalf("beta %v: %v", beta, err)
		}
		t.Logf("beta=%.2f deg=%.2f RDrel=%.3f±%.3f delayRel=%.3f costRel=%.3f",
			beta, row.AvgDegree, row.RDRel.Mean, row.RDRel.CI95, row.DelayRel.Mean, row.CostRel.Mean)
		if row.RDRel.Mean <= 0 {
			t.Errorf("beta %v: RD_rel %.3f not positive", beta, row.RDRel.Mean)
		}
	}
	_ = topology.DefaultBeta
}

// TestCalibrateReshape isolates the reshaping passes' contribution to the
// trade-off at β=0.15.
func TestCalibrateReshape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	type variant struct {
		name     string
		delta    int
		periodic bool
	}
	for _, v := range []variant{
		{name: "no-reshape", delta: 0, periodic: false},
		{name: "cond-I", delta: 2, periodic: false},
		{name: "cond-I+II", delta: 2, periodic: true},
	} {
		base := DefaultBase()
		base.Beta = 0.15
		base.SMRP.ReshapeDelta = v.delta
		base.SMRP.PeriodicReshape = v.periodic
		row, err := sweepPoint(bg, RunConfig{Seed: 99}, v.name, 0, base, 4, 2)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		t.Logf("%-10s deg=%.2f RDrel=%.3f delayRel=%.3f costRel=%.3f",
			v.name, row.AvgDegree, row.RDRel.Mean, row.DelayRel.Mean, row.CostRel.Mean)
	}
}
