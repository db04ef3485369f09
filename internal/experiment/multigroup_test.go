package experiment

import (
	"testing"
)

// Multigroup smoke shape: small enough for CI seconds, large enough that the
// Zipf head and tail both exist and the dense twin's footprint visibly
// dwarfs the sparse fleet mean.
const (
	mgSmokeGroups = 200
	mgSmokeMax    = 32
	mgSmokeNodes  = 5000
)

// TestMultigroupZipfProfile pins the popularity profile: harmonic decay from
// the configured maximum, floored at the minimum group size, monotone
// nonincreasing in rank.
func TestMultigroupZipfProfile(t *testing.T) {
	if got := multigroupSize(0, 64); got != 64 {
		t.Errorf("rank-0 size = %d, want 64", got)
	}
	if got := multigroupSize(1, 64); got != 32 {
		t.Errorf("rank-1 size = %d, want 32", got)
	}
	prev := multigroupSize(0, 64)
	for rank := 1; rank < 500; rank++ {
		s := multigroupSize(rank, 64)
		if s > prev {
			t.Fatalf("size grew with rank: %d at rank %d after %d", s, rank, prev)
		}
		if s < multigroupMinMembers {
			t.Fatalf("size %d below floor at rank %d", s, rank)
		}
		prev = s
	}
	if prev != multigroupMinMembers {
		t.Errorf("tail size = %d, want floor %d", prev, multigroupMinMembers)
	}
}

// TestMultigroupStandingBytesGate is the multigroup smoke gate, stated in
// deterministic counters and exact byte accounting (never wall-clock):
//   - zero integrity violations — which includes the dense-twin probe, i.e.
//     the rank-0 group's full schedule produced identical work counters on
//     both storage backends;
//   - every group drove its full branch-cut schedule and settled real work;
//   - the admission-work ceiling: a join's candidate sweeps settle at most a
//     third of what the delay-bound prune settled in distance order at this
//     shape;
//   - the per-group standing-bytes ceiling: the mean sparse group costs at
//     most a tenth of what one dense session costs on the same topology.
func TestMultigroupStandingBytesGate(t *testing.T) {
	res, err := RunMultigroup(bg, RunConfig{Seed: 2005}, mgSmokeGroups, mgSmokeMax, mgSmokeNodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("%d integrity violations, first: %s", len(res.Violations), res.Violations[0])
	}
	wantMembers := 0
	for rank := 0; rank < mgSmokeGroups; rank++ {
		wantMembers += multigroupSize(rank, mgSmokeMax)
	}
	if res.Members != wantMembers {
		t.Errorf("admitted %d receivers, Zipf profile says %d", res.Members, wantMembers)
	}
	if res.Events != multigroupEvents*mgSmokeGroups {
		t.Errorf("drove %d events, want %d", res.Events, multigroupEvents*mgSmokeGroups)
	}
	if res.JoinSettled == 0 || res.RecoverSettled == 0 {
		t.Fatalf("no settled work recorded: join=%d recover=%d", res.JoinSettled, res.RecoverSettled)
	}
	// The delay-bound prune settled 1252.1 nodes per join at this shape while
	// it swept its ellipse in distance order (the exhaustive sweep before it,
	// 3275.8). Grown toward the source, the sweep of a join the source decides
	// stops at the source's ellipse, and the mean is 216.0. The ceiling is a
	// third of the distance-ordered figure.
	if perJoin := ratioF(res.JoinSettled, res.Members); perJoin > 1252.1/3 {
		t.Errorf("admission settled %.1f nodes/join, want <= %.1f", perJoin, 1252.1/3)
	}
	if res.DenseTwinBytes == 0 || res.Rank0Bytes == 0 {
		t.Fatalf("twin accounting missing: dense=%d rank0=%d", res.DenseTwinBytes, res.Rank0Bytes)
	}
	t.Logf("standing bytes: mean=%d p50=%d max=%d vs dense twin %d (mean is %.1f%% of dense)",
		res.BytesMean(), res.BytesP50, res.BytesMax, res.DenseTwinBytes,
		100*float64(res.BytesMean())/float64(res.DenseTwinBytes))
	// The ceiling: a fleet of sparse groups averages well under a tenth of
	// one dense session (observed ~3%; 10% leaves room for schedule-shape
	// variance without weakening the claim).
	if res.BytesMean()*10 > res.DenseTwinBytes {
		t.Errorf("mean standing bytes %d exceed 10%% of a dense session's %d",
			res.BytesMean(), res.DenseTwinBytes)
	}
	// Even the most popular group undercuts its dense twin.
	if res.Rank0Bytes >= res.DenseTwinBytes {
		t.Errorf("rank-0 sparse bytes %d not below dense twin %d", res.Rank0Bytes, res.DenseTwinBytes)
	}
}
