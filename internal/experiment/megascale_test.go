package experiment

import (
	"strings"
	"testing"
)

// megascaleSmokeSizes are the CI-scale sizes: large enough that the flat
// arm's recovery work visibly exceeds the hierarchy's domain-bounded work,
// small enough to finish in seconds.
var megascaleSmokeSizes = []int{2000, 8000}

// TestMegascaleSettledRatio is the CI gate on the study's headline, stated in
// settled-node counters (exact and machine-independent), never wall-clock:
// per-recovery-event settled work in the hierarchy is bounded by the domain
// size, while the flat arm's grows with N and exceeds the hierarchy's by a
// widening factor.
func TestMegascaleSettledRatio(t *testing.T) {
	res, err := RunMegascale(bg, RunConfig{Seed: 2005}, megascaleSmokeSizes, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(megascaleSmokeSizes) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(megascaleSmokeSizes))
	}
	for _, row := range res.Rows {
		t.Logf("N=%d: flat settled/event=%.1f hier settled/event=%.1f, join flat=%d hier=%d",
			row.Target, row.Flat.SettledPerEvent(), row.Hier.SettledPerEvent(),
			row.Flat.JoinSettled, row.Hier.JoinSettled)
		if row.Flat.Events == 0 || row.Hier.Events == 0 {
			t.Fatalf("N=%d: no recovery events driven (flat %d, hier %d)",
				row.Target, row.Flat.Events, row.Hier.Events)
		}
		// Hierarchical recovery work is confined to one domain per event:
		// the bound is a small multiple of the ~100-node domain, not N.
		if perEvent := row.Hier.SettledPerEvent(); perEvent > 200 {
			t.Errorf("N=%d: hierarchical settled/event = %.1f, not domain-bounded",
				row.Target, perEvent)
		}
		// The ratio gate: a flat restoration event settles orders of magnitude
		// more nodes than a domain-confined one (observed >150x; 20x leaves
		// room for schedule-shape variance without weakening the claim).
		if row.Flat.RecoverSettled*row.Hier.Events < 20*row.Hier.RecoverSettled*row.Flat.Events {
			t.Errorf("N=%d: flat settled/event %.1f not >= 20x hierarchical %.1f",
				row.Target, row.Flat.SettledPerEvent(), row.Hier.SettledPerEvent())
		}
		if row.Flat.JoinSettled < 4*row.Hier.JoinSettled {
			t.Errorf("N=%d: flat join settled %d not >= 4x hierarchical %d",
				row.Target, row.Flat.JoinSettled, row.Hier.JoinSettled)
		}
	}
	// Growth with N, measured on the admission counter where per-member work
	// is exactly one near-full sweep: flat scales with the network (4x nodes
	// here), the hierarchy with the domain chain (constant domain size, so
	// bounded drift). Per-event restoration work has a noisier multiplier —
	// how many members hang off the cut branch varies with tree shape — which
	// is why the per-event claim above is a ratio, not a growth curve.
	small, large := res.Rows[0], res.Rows[len(res.Rows)-1]
	if large.Flat.JoinSettled < 2*small.Flat.JoinSettled {
		t.Errorf("flat join settled did not grow with N: %d at N=%d vs %d at N=%d",
			small.Flat.JoinSettled, small.Target, large.Flat.JoinSettled, large.Target)
	}
	if large.Hier.JoinSettled > 3*small.Hier.JoinSettled {
		t.Errorf("hierarchical join settled grew with N: %d at N=%d vs %d at N=%d",
			small.Hier.JoinSettled, small.Target, large.Hier.JoinSettled, large.Target)
	}
}

// TestMegascaleMemoryAccounting pins the deterministic memory story: the
// hierarchy's domain sessions route over views of the one frozen graph, so
// domain confinement costs a small fraction of the graph's own footprint —
// row headers and the few rows that cross a domain boundary — and the
// accounting is exact (re-running reproduces it bit-for-bit).
func TestMegascaleMemoryAccounting(t *testing.T) {
	res, err := RunMegascale(bg, RunConfig{Seed: 7}, []int{2000}, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.Flat.GraphBytes <= 0 || row.Hier.GraphBytes <= 0 {
		t.Fatalf("graph bytes not accounted: flat %d, hier %d", row.Flat.GraphBytes, row.Hier.GraphBytes)
	}
	if row.Flat.SessionBytes != 0 {
		t.Errorf("flat arm reported session bytes %d, routes over the shared graph", row.Flat.SessionBytes)
	}
	if row.Hier.SessionBytes <= 0 {
		t.Fatal("hierarchical arm reported no domain view bytes")
	}
	// A view aliases every row that stays inside its domain; an induced copy
	// per domain would re-materialize the graph's arcs once more.
	if 10*row.Hier.SessionBytes > row.Hier.GraphBytes {
		t.Errorf("domain view bytes %d exceed 0.1x graph bytes %d", row.Hier.SessionBytes, row.Hier.GraphBytes)
	}
	again, err := RunMegascale(bg, RunConfig{Seed: 7}, []int{2000}, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if again.Render() != res.Render() {
		t.Fatal("same-seed megascale reruns rendered differently")
	}
}

// TestMegascaleHierOnly pins the hierarchical tier (the mode the N=10⁶ CI
// trial runs in): events drive domain-bounded settled work, the accounting
// is present and the render carries no flat columns. (Its worker-count
// determinism is the megascale-hieronly row of
// TestStudiesDeterministicAcrossWorkerCounts.)
func TestMegascaleHierOnly(t *testing.T) {
	r1, err := RunMegascale(bg, RunConfig{Seed: 2005}, []int{2000, 8000}, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.HierOnly {
		t.Fatal("result not marked hier-only")
	}
	for _, row := range r1.Rows {
		if row.Flat != (MegascaleArm{}) {
			t.Fatalf("N=%d: hier-only run populated the flat arm: %+v", row.Target, row.Flat)
		}
		if row.Hier.Events == 0 {
			t.Fatalf("N=%d: no recovery events driven", row.Target)
		}
		if perEvent := row.Hier.SettledPerEvent(); perEvent > 200 {
			t.Errorf("N=%d: settled/event = %.1f, not domain-bounded", row.Target, perEvent)
		}
		if row.Hier.GraphBytes <= 0 || row.Hier.SessionBytes <= 0 {
			t.Fatalf("N=%d: memory accounting missing: graph=%d domain views=%d",
				row.Target, row.Hier.GraphBytes, row.Hier.SessionBytes)
		}
	}
	if out := r1.Render(); strings.Contains(out, "flat") {
		t.Fatalf("hier-only render mentions the flat arm:\n%s", out)
	}
}
