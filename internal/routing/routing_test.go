package routing

import (
	"math"
	"slices"
	"testing"

	"smrp/internal/eventsim"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

func fig1Domain(t *testing.T) *Domain {
	t.Helper()
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDomain(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{DetectionDelay: -1, SPFCompute: 0, FloodFactor: 1},
		{DetectionDelay: 0, SPFCompute: -1, FloodFactor: 1},
		{DetectionDelay: 0, SPFCompute: 0, FloodFactor: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDomain(g, bad[0]); err == nil {
		t.Error("NewDomain should reject bad config")
	}
}

func TestRoutesBeforeFailure(t *testing.T) {
	d := fig1Domain(t)
	// D (4) routes to S (0) via A (1): weight 2 < D-B-S = 4.
	p := d.PathTo(4, 0)
	if p.String() != "4→1→0" {
		t.Errorf("route = %v", p)
	}
	if d.Dist(4, 0) != 2 {
		t.Errorf("dist = %v", d.Dist(4, 0))
	}
}

func TestReconvergenceAfterFailure(t *testing.T) {
	d := fig1Domain(t)
	_ = d.PathTo(4, 0) // warm the cache
	d.ApplyFailure(failure.LinkDown(1, 4))
	// Post-reconvergence D routes via B.
	p := d.PathTo(4, 0)
	if p.String() != "4→2→0" {
		t.Errorf("route after failure = %v", p)
	}
	if d.Dist(4, 0) != 4 {
		t.Errorf("dist after failure = %v", d.Dist(4, 0))
	}
}

func TestPathToUnreachable(t *testing.T) {
	b := graph.New(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()
	d, err := NewDomain(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p := d.PathTo(0, 2); p != nil {
		t.Errorf("route to isolated node = %v", p)
	}
}

func TestConvergenceTimeLink(t *testing.T) {
	d := fig1Domain(t)
	f := failure.LinkDown(1, 4) // A-D fails; detectors are A and D
	cfg := DefaultConfig()
	// A itself converges after detection + compute.
	got := d.ConvergenceTime(1, f)
	want := cfg.DetectionDelay + cfg.SPFCompute
	if got != want {
		t.Errorf("ConvergenceTime(A) = %v, want %v", got, want)
	}
	// S is 1 away from detector A (residual), so +1 flooding.
	if got := d.ConvergenceTime(0, f); got != want+1 {
		t.Errorf("ConvergenceTime(S) = %v, want %v", got, want+1)
	}
	// D detects directly.
	if got := d.ConvergenceTime(4, f); got != want {
		t.Errorf("ConvergenceTime(D) = %v, want %v", got, want)
	}
	if d.DetectionTime() != cfg.DetectionDelay {
		t.Errorf("DetectionTime = %v", d.DetectionTime())
	}
}

func TestConvergenceTimeNodeFailure(t *testing.T) {
	d := fig1Domain(t)
	f := failure.NodeDown(1) // A dies; detectors: S, C, D
	cfg := DefaultConfig()
	want := cfg.DetectionDelay + cfg.SPFCompute
	if got := d.ConvergenceTime(0, f); got != want {
		t.Errorf("ConvergenceTime(S) = %v, want %v (S detects directly)", got, want)
	}
	// B is 2 from detector S in the residual graph.
	if got := d.ConvergenceTime(2, f); got != want+2 {
		t.Errorf("ConvergenceTime(B) = %v, want %v", got, want+2)
	}
}

func TestConvergenceTimePartitioned(t *testing.T) {
	b := graph.New(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()
	d, err := NewDomain(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := failure.NodeDown(1)
	// Node 2 is partitioned from detector 0; its LSA never arrives… but 2
	// is itself a detector (adjacent to 1), so it converges directly.
	if got := d.ConvergenceTime(2, f); math.IsInf(float64(got), 1) {
		t.Errorf("node 2 detects directly, got +Inf")
	}
	// A genuinely unreachable bystander: extend with an isolated node 3…
	b2 := graph.New(4)
	if err := b2.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b2.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := b2.AddEdge(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	g2 := b2.Freeze()
	d2, err := NewDomain(g2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 fails; detector is 1. Node 3 hears via 1→2→3 (distance 2).
	cfg := DefaultConfig()
	if got := d2.ConvergenceTime(3, failure.NodeDown(0)); got != cfg.DetectionDelay+2+cfg.SPFCompute {
		t.Errorf("ConvergenceTime = %v", got)
	}
}

func TestConvergenceAccumulatesFailures(t *testing.T) {
	d := fig1Domain(t)
	d.ApplyFailure(failure.LinkDown(1, 4))
	d.ApplyFailure(failure.LinkDown(2, 4))
	// D is now fully cut from S.
	if p := d.PathTo(4, 0); p != nil {
		if !slices.Contains(p.Edges(), graph.MakeEdgeID(3, 4)) {
			t.Errorf("unexpected surviving route %v", p)
		}
	}
	// Route via C still exists: D-C-A-S.
	p := d.PathTo(4, 0)
	if p.String() != "4→3→1→0" {
		t.Errorf("route = %v", p)
	}
	// Convergence for a second failure accounts for the first one.
	got := d.ConvergenceTime(2, failure.LinkDown(2, 4))
	want := DefaultConfig().DetectionDelay + DefaultConfig().SPFCompute
	if got != want {
		t.Errorf("ConvergenceTime(B, own link) = %v, want %v", got, want)
	}
	_ = eventsim.Infinity
}

func TestStringer(t *testing.T) {
	d := fig1Domain(t)
	if d.String() == "" {
		t.Error("String should render")
	}
	if d.Graph() == nil || d.Mask() == nil {
		t.Error("accessors should be non-nil")
	}
}
