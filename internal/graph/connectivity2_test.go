package graph

import (
	"math/rand"
	"testing"
)

func TestArticulationPointsBarbell(t *testing.T) {
	// Two triangles joined by a single edge 2-3: its endpoints are the cuts.
	b := New(6)
	mustEdge(t, b, 0, 1, 1)
	mustEdge(t, b, 1, 2, 1)
	mustEdge(t, b, 2, 0, 1)
	mustEdge(t, b, 3, 4, 1)
	mustEdge(t, b, 4, 5, 1)
	mustEdge(t, b, 5, 3, 1)
	mustEdge(t, b, 2, 3, 1)
	g := b.Freeze()
	arts := g.ArticulationPoints(nil)
	if len(arts) != 2 || arts[0] != 2 || arts[1] != 3 {
		t.Errorf("articulations = %v, want [2 3]", arts)
	}
}

func TestArticulationPointsStar(t *testing.T) {
	b := New(4)
	for i := 1; i < 4; i++ {
		mustEdge(t, b, 0, NodeID(i), 1)
	}
	g := b.Freeze()
	arts := g.ArticulationPoints(nil)
	if len(arts) != 1 || arts[0] != 0 {
		t.Errorf("articulations = %v, want [0]", arts)
	}
	if g.Biconnected(nil) {
		t.Error("star is not biconnected")
	}
}

func TestBiconnectedCycle(t *testing.T) {
	b := New(5)
	for i := 0; i < 5; i++ {
		mustEdge(t, b, NodeID(i), NodeID((i+1)%5), 1)
	}
	g := b.Freeze()
	if !g.Biconnected(nil) {
		t.Error("cycle should be biconnected")
	}
	if arts := g.ArticulationPoints(nil); len(arts) != 0 {
		t.Errorf("articulations = %v", arts)
	}
	// A two-node graph is not biconnected by convention.
	b2 := New(2)
	mustEdge(t, b2, 0, 1, 1)
	g2 := b2.Freeze()
	if g2.Biconnected(nil) {
		t.Error("K2 should not count as biconnected")
	}
}

// bruteForceArticulations removes each node and checks connectivity.
func bruteForceArticulations(g *Graph) map[NodeID]bool {
	out := map[NodeID]bool{}
	base := len(g.Components(nil))
	for v := 0; v < g.NumNodes(); v++ {
		mask := NewMask().BlockNode(NodeID(v))
		if len(g.Components(mask)) > base {
			out[NodeID(v)] = true
		}
	}
	return out
}

func TestArticulationPointsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(20)
		g := randomConnectedGraph(rng, n, rng.Intn(2*n))
		wantArts := bruteForceArticulations(g)
		gotArts := g.ArticulationPoints(nil)
		if len(gotArts) != len(wantArts) {
			t.Fatalf("trial %d: articulations %v, brute force %v", trial, gotArts, wantArts)
		}
		for _, v := range gotArts {
			if !wantArts[v] {
				t.Fatalf("trial %d: false articulation %v", trial, v)
			}
		}
	}
}

// randomBiconnectedGraph keeps sampling denser random graphs until one is
// biconnected.
func randomBiconnectedGraph(t *testing.T, rng *rand.Rand, n int) *Graph {
	t.Helper()
	for tries := 0; tries < 200; tries++ {
		g := randomConnectedGraph(rng, n, 3*n)
		if g.Biconnected(nil) {
			return g
		}
	}
	t.Fatal("could not sample a biconnected graph")
	return nil
}

func TestSTNumberingOnCycle(t *testing.T) {
	b := New(5)
	for i := 0; i < 5; i++ {
		mustEdge(t, b, NodeID(i), NodeID((i+1)%5), 1)
	}
	g := b.Freeze()
	num, err := g.STNumbering(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if num[0] != 1 || num[1] != 5 {
		t.Errorf("endpoints: s=%d t=%d", num[0], num[1])
	}
	assertSTProperty(t, g, num, 0, 1)
}

func TestSTNumberingErrors(t *testing.T) {
	g := line(t, 4)
	if _, err := g.STNumbering(0, 2); err == nil {
		t.Error("non-edge (s,t) should fail")
	}
	if _, err := g.STNumbering(0, 1); err == nil {
		t.Error("line graph is not biconnected; should fail")
	}
	if _, err := g.STNumbering(0, 99); err == nil {
		t.Error("unknown endpoint should fail")
	}
}

func TestSTNumberingRandomBiconnected(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := 6 + rng.Intn(25)
		g := randomBiconnectedGraph(t, rng, n)
		// Any edge can serve as (s, t).
		e := g.Edges()[rng.Intn(g.NumEdges())]
		num, err := g.STNumbering(e.A, e.B)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertSTProperty(t, g, num, e.A, e.B)
	}
}

// assertSTProperty checks num is a bijection onto 1..n with s=1, t=n and the
// both-sides neighbor property.
func assertSTProperty(t *testing.T, g *Graph, num map[NodeID]int, s, tt NodeID) {
	t.Helper()
	n := g.NumNodes()
	seen := make([]bool, n+1)
	for _, v := range num {
		if v < 1 || v > n || seen[v] {
			t.Fatalf("numbering not a bijection: %v", num)
		}
		seen[v] = true
	}
	if num[s] != 1 || num[tt] != n {
		t.Fatalf("s=%d t=%d", num[s], num[tt])
	}
	for v, nv := range num {
		if v == s || v == tt {
			continue
		}
		lower, higher := false, false
		for _, arc := range g.Neighbors(v) {
			if num[arc.To] < nv {
				lower = true
			}
			if num[arc.To] > nv {
				higher = true
			}
		}
		if !lower || !higher {
			t.Fatalf("vertex %d (num %d) lacks a lower or higher neighbor", v, nv)
		}
	}
}
