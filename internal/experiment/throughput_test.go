package experiment

import (
	"testing"
)

// TestThroughputSettledPerJoin is the admission-work gate: on the blessed
// seed a join's candidate sweeps settle 30 nodes of the 300 on average under
// the delay-bound prune, run toward the source (34 in distance order; the
// exhaustive sweeps before that settled 231 per flash-crowd join), and the
// gate is a ceiling of 60. Settled-node counts
// are exact and deterministic, so this is a stable CI gate where wall-clock
// on a shared single-core runner is not.
func TestThroughputSettledPerJoin(t *testing.T) {
	sessions := 10
	if testing.Short() {
		sessions = 3
	}
	r, err := RunThroughput(bg, RunConfig{Seed: 2005}, sessions)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.SettledPerJoin(); got == 0 || got > 60 {
		t.Fatalf("candidate sweeps settled %.1f nodes per join (%d over %d joins), want (0, 60]",
			got, r.EnumSettled, r.Joins)
	}
	if r.BatchJoins != sessions*r.FlashCrowd {
		t.Fatalf("BatchJoins = %d, want %d", r.BatchJoins, sessions*r.FlashCrowd)
	}
}
