package core

import (
	"runtime/debug"
	"testing"

	"smrp/internal/graph"
	"smrp/internal/topology"
)

// graftDetour grafts a local-detour path (reattachment point → … → member)
// and restores the member's session bookkeeping, as a recovery graft does.
func graftDetour(s *Session, p graph.Path) error {
	if err := s.tree.Graft(p, true); err != nil {
		return err
	}
	m := p.Last()
	delete(s.parked, m)
	s.repairSHR()
	s.recordUpSHR(m)
	s.notifyStrategy()
	return nil
}

// eagerChurnFixture builds a warm 30-member session on the
// evaluation-scale bench topology and returns a leaf member plus the detour
// path that regrafts it after a Leave, forming a stable churn cycle.
func eagerChurnFixture(tb testing.TB) (*Session, graph.NodeID, graph.Path) {
	tb.Helper()
	g := benchGraph(tb, 2005)
	s, err := NewSession(g, 0, DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	for _, m := range topology.NewRNG(77).Sample(g.NumNodes(), 30) {
		if graph.NodeID(m) == 0 {
			continue
		}
		if _, err := s.Join(graph.NodeID(m)); err != nil {
			tb.Fatal(err)
		}
	}
	tr := s.Tree()
	var leaf graph.NodeID = graph.Invalid
	for _, m := range tr.Members() {
		if len(tr.Children(m)) == 0 && m != tr.Source() {
			leaf = m
			break
		}
	}
	if leaf == graph.Invalid {
		tb.Fatal("no leaf member in bench session")
	}
	if err := s.Leave(leaf); err != nil {
		tb.Fatal(err)
	}
	_, p, _ := g.NearestOf(leaf, nil, tr.OnTree)
	if p == nil {
		tb.Fatal("leaf cannot regraft")
	}
	regraft := p.Reverse()
	if err := graftDetour(s, regraft); err != nil {
		tb.Fatal(err)
	}
	return s, leaf, regraft
}

// TestEagerChurnSteadyStateAllocs pins the warm Leave/graftDetour cycle —
// tree mutation plus eager SHR dirty-subtree repair — at zero heap
// allocations, mirroring TestSweepSteadyStateAllocs and
// TestTreeSteadyStateAllocs. GC is disabled so a collection cannot shrink
// pooled storage mid-measurement.
func TestEagerChurnSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	s, leaf, regraft := eagerChurnFixture(t)
	// Warm: one full cycle outside the measurement.
	if err := s.Leave(leaf); err != nil {
		t.Fatal(err)
	}
	if err := graftDetour(s, regraft); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.Leave(leaf); err != nil {
			t.Fatal(err)
		}
		if err := graftDetour(s, regraft); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state churn allocated %.1f times per cycle, want 0", allocs)
	}
}

// BenchmarkEagerSHRChurn measures one warm membership churn event under
// eager SHR maintenance: a leaf member leaves and regrafts (graftDetour, no
// candidate enumeration), so the timing isolates tree-state mutation plus
// SHR column maintenance — the per-event cost §3.3.2's update-message analysis
// is about.
func BenchmarkEagerSHRChurn(b *testing.B) {
	s, leaf, regraft := eagerChurnFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Leave(leaf); err != nil {
			b.Fatal(err)
		}
		if err := graftDetour(s, regraft); err != nil {
			b.Fatal(err)
		}
	}
}
