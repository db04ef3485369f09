package protect

import (
	"errors"
	"math/rand"
	"testing"

	"smrp/internal/graph"
)

// build freezes a graph on n nodes with the listed unit-weight edges.
func build(t *testing.T, n int, edges ...[2]graph.NodeID) *graph.Graph {
	t.Helper()
	b := graph.New(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// barbell is two triangles joined by the single edge 2-3.
func barbell(t *testing.T) *graph.Graph {
	return build(t, 6, [2]graph.NodeID{0, 1}, [2]graph.NodeID{1, 2}, [2]graph.NodeID{2, 0},
		[2]graph.NodeID{3, 4}, [2]graph.NodeID{4, 5}, [2]graph.NodeID{5, 3}, [2]graph.NodeID{2, 3})
}

// articulationPoints returns the cut vertices of the connected graph g.
func articulationPoints(g *graph.Graph) []graph.NodeID {
	cuts, _ := newAdjacency(g).cutVertices()
	return cuts
}

func TestArticulationPointsBarbell(t *testing.T) {
	// The bridge's endpoints are the cuts.
	arts := articulationPoints(barbell(t))
	if len(arts) != 2 || arts[0] != 2 || arts[1] != 3 {
		t.Errorf("articulations = %v, want [2 3]", arts)
	}
}

func TestArticulationPointsStar(t *testing.T) {
	g := build(t, 4, [2]graph.NodeID{0, 1}, [2]graph.NodeID{0, 2}, [2]graph.NodeID{0, 3})
	arts := articulationPoints(g)
	if len(arts) != 1 || arts[0] != 0 {
		t.Errorf("articulations = %v, want [0]", arts)
	}
	if Biconnected(g) {
		t.Error("star is not biconnected")
	}
}

func TestBiconnectedCycle(t *testing.T) {
	g := ring(t, 5)
	if !Biconnected(g) {
		t.Error("cycle should be biconnected")
	}
	if arts := articulationPoints(g); len(arts) != 0 {
		t.Errorf("articulations = %v", arts)
	}
	// A two-node graph is not biconnected by convention.
	if Biconnected(line(t, 2)) {
		t.Error("K2 should not count as biconnected")
	}
	// Nor is a disconnected one, though each part is a cycle.
	two := build(t, 6, [2]graph.NodeID{0, 1}, [2]graph.NodeID{1, 2}, [2]graph.NodeID{2, 0},
		[2]graph.NodeID{3, 4}, [2]graph.NodeID{4, 5}, [2]graph.NodeID{5, 3})
	if Biconnected(two) {
		t.Error("two disjoint triangles should not count as biconnected")
	}
}

// randomConnectedGraph builds a connected random graph: a random spanning
// tree plus up to extraEdges random chords, with weights in (0, 10].
func randomConnectedGraph(t *testing.T, rng *rand.Rand, n, extraEdges int) *graph.Graph {
	t.Helper()
	b, seen := graph.New(n), map[graph.EdgeID]bool{}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := graph.NodeID(perm[i])
		v := graph.NodeID(perm[rng.Intn(i)])
		seen[graph.MakeEdgeID(u, v)] = true
		_ = b.AddEdge(u, v, 1+rng.Float64()*9)
	}
	for i := 0; i < extraEdges; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v || seen[graph.MakeEdgeID(u, v)] {
			continue
		}
		seen[graph.MakeEdgeID(u, v)] = true
		_ = b.AddEdge(u, v, 1+rng.Float64()*9)
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bruteForceArticulations removes each node and checks connectivity.
func bruteForceArticulations(g *graph.Graph) map[graph.NodeID]bool {
	out := map[graph.NodeID]bool{}
	base := len(g.Components(nil))
	for v := 0; v < g.NumNodes(); v++ {
		mask := graph.NewMask().BlockNode(graph.NodeID(v))
		if len(g.Components(mask)) > base {
			out[graph.NodeID(v)] = true
		}
	}
	return out
}

// articulationSamples draws the random connected graphs the brute-force
// comparisons run over: 20 graphs of 6 to 25 nodes, from a tree to a tree
// with about twice as many chords as nodes.
func articulationSamples(t *testing.T) []*graph.Graph {
	rng := rand.New(rand.NewSource(17))
	out := make([]*graph.Graph, 20)
	for i := range out {
		n := 6 + rng.Intn(20)
		out[i] = randomConnectedGraph(t, rng, n, rng.Intn(2*n))
	}
	return out
}

func TestArticulationPointsMatchBruteForce(t *testing.T) {
	for trial, g := range articulationSamples(t) {
		wantArts := bruteForceArticulations(g)
		gotArts := articulationPoints(g)
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

// TestRedundantTreesExistExactlyWhenBiconnected: since (source, t) is an
// edge, an st-numbering, and with it the red/blue pair, exists exactly when
// the graph is biconnected; a refusal says so through ErrNotBiconnected.
// The samples must hold both kinds, or the test shows nothing.
func TestRedundantTreesExistExactlyWhenBiconnected(t *testing.T) {
	kinds := map[bool]int{}
	for trial, g := range articulationSamples(t) {
		bi := Biconnected(g)
		kinds[bi]++
		_, err := BuildRedundantTrees(g, 0)
		if bi != (err == nil) {
			t.Fatalf("trial %d: Biconnected = %v, BuildRedundantTrees error %v", trial, bi, err)
		}
		if err != nil && !errors.Is(err, ErrNotBiconnected) {
			t.Fatalf("trial %d: refusal %v does not wrap ErrNotBiconnected", trial, err)
		}
	}
	if kinds[true] == 0 || kinds[false] == 0 {
		t.Fatalf("samples: %d biconnected, %d not; want some of each", kinds[true], kinds[false])
	}
}

// randomBiconnectedGraph keeps sampling denser random graphs until one is
// biconnected.
func randomBiconnectedGraph(t *testing.T, rng *rand.Rand, n int) *graph.Graph {
	t.Helper()
	for tries := 0; tries < 200; tries++ {
		if g := randomConnectedGraph(t, rng, n, 3*n); Biconnected(g) {
			return g
		}
	}
	t.Fatal("could not sample a biconnected graph")
	return nil
}

func TestSTNumberingOnCycle(t *testing.T) {
	g := ring(t, 5)
	num, err := newAdjacency(g).stNumbering(0, 1)
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
	if _, err := newAdjacency(g).stNumbering(0, 2); err == nil {
		t.Error("non-edge (s,t) should fail")
	}
	if _, err := newAdjacency(g).stNumbering(0, 1); !errors.Is(err, ErrNotBiconnected) {
		t.Errorf("line graph is not biconnected; err = %v", err)
	}
	if _, err := newAdjacency(g).stNumbering(0, 99); err == nil {
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
		num, err := newAdjacency(g).stNumbering(e.A, e.B)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertSTProperty(t, g, num, e.A, e.B)
	}
}

// assertSTProperty checks num is a bijection onto 1..n with s=1, t=n and the
// both-sides neighbor property.
func assertSTProperty(t *testing.T, g *graph.Graph, num []int, s, tt graph.NodeID) {
	t.Helper()
	n := g.NumNodes()
	seen := make([]bool, n+1)
	if len(num) != n {
		t.Fatalf("numbering has %d entries for %d nodes", len(num), n)
	}
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
		if graph.NodeID(v) == s || graph.NodeID(v) == tt {
			continue
		}
		lower, higher := false, false
		for _, arc := range g.Neighbors(graph.NodeID(v)) {
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
