package graph

import (
	"math"
	"math/rand"
	"testing"
)

// diamond builds the 4-node graph
//
//	0 --1-- 1 --1-- 3
//	 \             /
//	  --2-- 2 --2--
//
// where 0→3 via 1 costs 2 and via 2 costs 4.
func diamond(t *testing.T) *Graph {
	t.Helper()
	b := New(4)
	mustEdge(t, b, 0, 1, 1)
	mustEdge(t, b, 1, 3, 1)
	mustEdge(t, b, 0, 2, 2)
	mustEdge(t, b, 2, 3, 2)
	return b.Freeze()
}

func TestDijkstraBasic(t *testing.T) {
	g := diamond(t)
	tr := g.Dijkstra(0, nil)
	wantDist := []float64{0, 1, 2, 2}
	for n, want := range wantDist {
		if got := tr.Dist[n]; got != want {
			t.Errorf("Dist[%d] = %v, want %v", n, got, want)
		}
	}
	p := tr.PathTo(3)
	if p.String() != "0→1→3" {
		t.Errorf("PathTo(3) = %v, want 0→1→3", p)
	}
}

func TestDijkstraWithMask(t *testing.T) {
	g := diamond(t)
	mask := NewMask().BlockEdge(1, 3)
	p, d := g.ShortestPath(0, 3, mask)
	if d != 4 || p.String() != "0→2→3" {
		t.Errorf("masked shortest path = %v (%v), want 0→2→3 (4)", p, d)
	}
	mask.BlockNode(2)
	if _, d := g.ShortestPath(0, 3, mask); !math.IsInf(d, 1) {
		t.Errorf("fully blocked path should be unreachable, got %v", d)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := New(3)
	mustEdge(t, b, 0, 1, 1)
	g := b.Freeze()
	tr := g.Dijkstra(0, nil)
	if tr.Reachable(2) {
		t.Error("node 2 should be unreachable")
	}
	if p := tr.PathTo(2); p != nil {
		t.Errorf("PathTo(2) = %v, want nil", p)
	}
}

func TestDijkstraBlockedSource(t *testing.T) {
	g := diamond(t)
	tr := g.Dijkstra(0, NewMask().BlockNode(0))
	for n := 0; n < g.NumNodes(); n++ {
		if tr.Reachable(NodeID(n)) {
			t.Errorf("node %d reachable from blocked source", n)
		}
	}
}

func TestDijkstraSourcePath(t *testing.T) {
	g := diamond(t)
	tr := g.Dijkstra(2, nil)
	p := tr.PathTo(2)
	if len(p) != 1 || p[0] != 2 {
		t.Errorf("PathTo(source) = %v, want [2]", p)
	}
	if tr.Dist[2] != 0 {
		t.Errorf("Dist[source] = %v, want 0", tr.Dist[2])
	}
}

func TestNearestOf(t *testing.T) {
	g := line(t, 6) // 0-1-2-3-4-5
	accept := func(n NodeID) bool { return n == 0 || n == 5 }
	node, p, d := g.NearestOf(2, nil, accept)
	if node != 0 || d != 2 {
		t.Errorf("NearestOf = node %d dist %v, want node 0 dist 2", node, d)
	}
	if p.String() != "2→1→0" {
		t.Errorf("NearestOf path = %v, want 2→1→0", p)
	}
}

func TestNearestOfAcceptsSource(t *testing.T) {
	g := line(t, 3)
	node, p, d := g.NearestOf(1, nil, func(n NodeID) bool { return n == 1 })
	if node != 1 || d != 0 || len(p) != 1 {
		t.Errorf("NearestOf(source accepted) = %d,%v,%v", node, p, d)
	}
}

func TestNearestOfNoneReachable(t *testing.T) {
	g := line(t, 4)
	mask := NewMask().BlockEdge(1, 2)
	node, p, d := g.NearestOf(0, mask, func(n NodeID) bool { return n == 3 })
	if node != Invalid || p != nil || !math.IsInf(d, 1) {
		t.Errorf("NearestOf unreachable = %d,%v,%v, want Invalid,nil,+Inf", node, p, d)
	}
}

func TestNearestOfTiesAreNearest(t *testing.T) {
	// Star: center 0 with arms of different lengths.
	b := New(4)
	mustEdge(t, b, 0, 1, 5)
	mustEdge(t, b, 0, 2, 3)
	mustEdge(t, b, 0, 3, 4)
	g := b.Freeze()
	node, _, d := g.NearestOf(0, nil, func(n NodeID) bool { return n != 0 })
	if node != 2 || d != 3 {
		t.Errorf("NearestOf = %d (%v), want 2 (3)", node, d)
	}
}

// randomConnectedGraph builds a connected random graph: a random spanning
// tree plus extra random edges, with weights in (0, 10].
func randomConnectedGraph(rng *rand.Rand, n, extraEdges int) *Graph {
	return randomConnectedBuild(rng, n, extraEdges).Freeze()
}

// randomConnectedBuild is randomConnectedGraph up to, not including, Freeze.
func randomConnectedBuild(rng *rand.Rand, n, extraEdges int) *Builder {
	b := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := NodeID(perm[i])
		v := NodeID(perm[rng.Intn(i)])
		_ = b.AddEdge(u, v, 1+rng.Float64()*9)
	}
	for i := 0; i < extraEdges; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v || b.HasEdge(u, v) {
			continue
		}
		_ = b.AddEdge(u, v, 1+rng.Float64()*9)
	}
	return b
}

// bellmanFord is an independent O(V·E) reference implementation used to
// cross-check Dijkstra.
func bellmanFord(g *Graph, src NodeID) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, e := range g.Edges() {
			w, _ := g.EdgeWeight(e.A, e.B)
			if dist[e.A]+w < dist[e.B] {
				dist[e.B] = dist[e.A] + w
				changed = true
			}
			if dist[e.B]+w < dist[e.A] {
				dist[e.A] = dist[e.B] + w
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// TestDijkstraMatchesBellmanFord property-checks Dijkstra against an
// independent Bellman-Ford oracle on random connected graphs.
func TestDijkstraMatchesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(40)
		g := randomConnectedGraph(rng, n, n)
		src := NodeID(rng.Intn(n))
		got := g.Dijkstra(src, nil)
		want := bellmanFord(g, src)
		for i := 0; i < n; i++ {
			if math.Abs(got.Dist[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: Dist[%d] = %v, Bellman-Ford says %v", trial, i, got.Dist[i], want[i])
			}
		}
	}
}

// TestDijkstraPathsAreConsistent checks that every reported path is valid,
// simple, and has weight equal to the reported distance.
func TestDijkstraPathsAreConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(30)
		g := randomConnectedGraph(rng, n, 2*n)
		src := NodeID(rng.Intn(n))
		tr := g.Dijkstra(src, nil)
		for i := 0; i < n; i++ {
			p := tr.PathTo(NodeID(i))
			if p == nil {
				t.Fatalf("trial %d: node %d unreachable in connected graph", trial, i)
			}
			if err := p.Validate(g); err != nil {
				t.Fatalf("trial %d: invalid path to %d: %v", trial, i, err)
			}
			if !p.IsSimple() {
				t.Fatalf("trial %d: non-simple path to %d: %v", trial, i, p)
			}
			w, err := p.Weight(g)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if math.Abs(w-tr.Dist[i]) > 1e-9 {
				t.Fatalf("trial %d: path weight %v != dist %v for node %d", trial, w, tr.Dist[i], i)
			}
		}
	}
}

// TestDijkstraDeterministic ensures repeated runs give identical trees.
func TestDijkstraDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomConnectedGraph(rng, 40, 80)
	a := g.dijkstra(0, nil)
	b := g.dijkstra(0, nil)
	for i := range a.Parent {
		if a.Parent[i] != b.Parent[i] || a.Dist[i] != b.Dist[i] {
			t.Fatalf("non-deterministic Dijkstra at node %d", i)
		}
	}
}

func BenchmarkDijkstra100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnectedGraph(rng, 100, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.dijkstra(NodeID(i%100), nil)
	}
}
