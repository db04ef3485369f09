package graph

import "testing"

func TestSubgraph(t *testing.T) {
	g := New(5)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 2)
	mustEdge(t, g, 2, 3, 3)
	mustEdge(t, g, 3, 4, 4)
	mustEdge(t, g, 0, 4, 5)
	g.SetPos(2, Point{X: 7, Y: 8})

	sub, nm, err := g.Subgraph([]NodeID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("sub shape: %d nodes %d edges", sub.NumNodes(), sub.NumEdges())
	}
	// ID translation both ways.
	s2, ok := nm.ToSub(2)
	if !ok {
		t.Fatal("node 2 missing from map")
	}
	if f, ok := nm.ToFull(s2); !ok || f != 2 {
		t.Errorf("round trip = %d,%v", f, ok)
	}
	if _, ok := nm.ToSub(4); ok {
		t.Error("node 4 should not be in the subgraph")
	}
	if _, ok := nm.ToFull(99); ok {
		t.Error("unknown sub ID should not map")
	}
	// Weights and positions carried over.
	s1, _ := nm.ToSub(1)
	if w, ok := sub.EdgeWeight(s1, s2); !ok || w != 2 {
		t.Errorf("edge weight = %v,%v", w, ok)
	}
	if p := sub.Pos(s2); p.X != 7 || p.Y != 8 {
		t.Errorf("pos = %+v", p)
	}
	// Edges to excluded nodes are absent.
	s3, _ := nm.ToSub(3)
	for _, arc := range sub.Neighbors(s3) {
		if f, _ := nm.ToFull(arc.To); f == 4 {
			t.Error("edge to excluded node leaked into subgraph")
		}
	}
}

func TestSubgraphErrors(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1, 1)
	if _, _, err := g.Subgraph([]NodeID{0, 9}); err == nil {
		t.Error("unknown node should fail")
	}
	if _, _, err := g.Subgraph([]NodeID{0, 0}); err == nil {
		t.Error("duplicate node should fail")
	}
}
