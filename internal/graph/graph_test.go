package graph

import (
	"math"
	"testing"
)

// line builds the path graph 0-1-2-...-(n-1) with unit weights.
func line(t *testing.T, n int) *Graph {
	t.Helper()
	b := New(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(NodeID(i), NodeID(i+1), 1); err != nil {
			t.Fatalf("add edge: %v", err)
		}
	}
	return mustFreeze(b)
}

func TestMakeEdgeIDCanonical(t *testing.T) {
	tests := []struct {
		name string
		u, v NodeID
		want EdgeID
	}{
		{name: "ordered", u: 1, v: 2, want: EdgeID{A: 1, B: 2}},
		{name: "reversed", u: 2, v: 1, want: EdgeID{A: 1, B: 2}},
		{name: "zero", u: 0, v: 5, want: EdgeID{A: 0, B: 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := MakeEdgeID(tt.u, tt.v); got != tt.want {
				t.Errorf("MakeEdgeID(%d,%d) = %v, want %v", tt.u, tt.v, got, tt.want)
			}
		})
	}
}

// TestAddEdgeValidation: a build is refused for each bad edge, at the
// AddEdge call or, for a duplicate, at Freeze.
func TestAddEdgeValidation(t *testing.T) {
	tests := []struct {
		name    string
		u, v    NodeID
		w       float64
		wantErr bool
	}{
		{name: "valid", u: 1, v: 2, w: 1.5, wantErr: false},
		{name: "duplicate", u: 1, v: 0, w: 2, wantErr: true},
		{name: "self loop", u: 2, v: 2, w: 1, wantErr: true},
		{name: "unknown node", u: 0, v: 9, w: 1, wantErr: true},
		{name: "negative node", u: -1, v: 1, w: 1, wantErr: true},
		{name: "zero weight", u: 0, v: 2, w: 0, wantErr: true},
		{name: "negative weight", u: 0, v: 2, w: -3, wantErr: true},
		{name: "nan weight", u: 0, v: 2, w: math.NaN(), wantErr: true},
		{name: "inf weight", u: 0, v: 2, w: math.Inf(1), wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := New(3)
			mustEdge(t, b, 0, 1, 1.5)
			err := b.AddEdge(tt.u, tt.v, tt.w)
			if err == nil {
				_, err = b.Freeze()
			}
			if (err != nil) != tt.wantErr {
				t.Errorf("AddEdge(%d,%d,%v) then Freeze: error = %v, wantErr %v", tt.u, tt.v, tt.w, err, tt.wantErr)
			}
		})
	}
}

func TestGraphAccessors(t *testing.T) {
	b := New(4)
	mustEdge(t, b, 0, 1, 2)
	mustEdge(t, b, 1, 2, 3)
	mustEdge(t, b, 2, 3, 4)

	g := mustFreeze(b)
	if got := g.NumNodes(); got != 4 {
		t.Errorf("NumNodes = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 3 {
		t.Errorf("NumEdges = %d, want 3", got)
	}
	if w, ok := g.EdgeWeight(2, 1); !ok || w != 3 {
		t.Errorf("EdgeWeight(2,1) = %v,%v, want 3,true", w, ok)
	}
	if g.HasEdge(0, 3) {
		t.Error("HasEdge(0,3) should be false")
	}
	if got := g.Degree(1); got != 2 {
		t.Errorf("Degree(1) = %d, want 2", got)
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Errorf("AvgDegree = %v, want 1.5", got)
	}
}

func TestAvgDegreeEmpty(t *testing.T) {
	g := mustFreeze(New(0))
	if got := g.AvgDegree(); got != 0 {
		t.Errorf("AvgDegree of empty graph = %v, want 0", got)
	}
}

func TestAddNodeAndPos(t *testing.T) {
	b := New(1)
	id := b.AddNode(Point{X: 3, Y: 4})
	if id != 1 {
		t.Fatalf("AddNode returned %d, want 1", id)
	}
	if p := b.Pos(id); p.X != 3 || p.Y != 4 {
		t.Errorf("Pos(%d) = %+v, want {3 4}", id, p)
	}
	b.SetPos(0, Point{X: 6, Y: 8})
	g := mustFreeze(b)
	if d := g.Pos(0).Dist(g.Pos(1)); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if g.NumNodes() != 2 || b.NumNodes() != 0 {
		t.Errorf("after Freeze: graph has %d nodes, builder %d; want 2 and 0", g.NumNodes(), b.NumNodes())
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	b := New(4)
	mustEdge(t, b, 3, 2, 1)
	mustEdge(t, b, 1, 0, 1)
	mustEdge(t, b, 2, 0, 1)
	g := mustFreeze(b)
	got := g.Edges()
	want := []EdgeID{{0, 1}, {0, 2}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("Edges len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Edges[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMaskBlocking(t *testing.T) {
	m := NewMask().BlockNode(2).BlockEdge(0, 1)
	if !m.NodeBlocked(2) || m.NodeBlocked(1) {
		t.Error("NodeBlocked mismatch")
	}
	if !m.EdgeBlocked(1, 0) {
		t.Error("EdgeBlocked should be orientation-insensitive")
	}
	// Blocked endpoint blocks incident edges too.
	if !m.EdgeBlocked(2, 3) {
		t.Error("edge incident to blocked node should be blocked")
	}
	if m.EdgeBlocked(3, 4) {
		t.Error("unrelated edge should not be blocked")
	}
}

func TestNilMaskBlocksNothing(t *testing.T) {
	var m *Mask
	if m.NodeBlocked(0) || m.EdgeBlocked(0, 1) {
		t.Error("nil mask must block nothing")
	}
	c := m.Clone()
	if c == nil || c.NodeBlocked(0) {
		t.Error("cloning nil mask should yield empty mask")
	}
}

func TestMaskUnion(t *testing.T) {
	a := NewMask().BlockNode(1)
	b := NewMask().BlockEdge(2, 3)
	u := a.Union(b)
	if !u.NodeBlocked(1) || !u.EdgeBlocked(2, 3) {
		t.Error("union should block both constituents")
	}
	if a.EdgeBlocked(2, 3) {
		t.Error("union must not mutate its receiver")
	}
	if got := a.Union(nil); !got.NodeBlocked(1) {
		t.Error("union with nil should equal clone")
	}
}

func mustEdge(t *testing.T, b *Builder, u, v NodeID, w float64) {
	t.Helper()
	if err := b.AddEdge(u, v, w); err != nil {
		t.Fatalf("AddEdge(%d,%d,%v): %v", u, v, w, err)
	}
}
