package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
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
	return mustFreeze(b)
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
	g := mustFreeze(b)
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
	g := mustFreeze(b)
	node, _, d := g.NearestOf(0, nil, func(n NodeID) bool { return n != 0 })
	if node != 2 || d != 3 {
		t.Errorf("NearestOf = %d (%v), want 2 (3)", node, d)
	}
}

// randomConnectedGraph builds a connected random graph: a random spanning
// tree plus extra random edges, with weights in (0, 10].
func randomConnectedGraph(rng *rand.Rand, n, extraEdges int) *Graph {
	return mustFreeze(randomConnectedBuild(rng, n, extraEdges))
}

// randomConnectedBuild is randomConnectedGraph up to, not including, Freeze.
func randomConnectedBuild(rng *rand.Rand, n, extraEdges int) *Builder {
	b, seen := New(n), map[EdgeID]bool{}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := NodeID(perm[i])
		v := NodeID(perm[rng.Intn(i)])
		seen[MakeEdgeID(u, v)] = true
		_ = b.AddEdge(u, v, 1+rng.Float64()*9)
	}
	for i := 0; i < extraEdges; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v || seen[MakeEdgeID(u, v)] {
			continue
		}
		seen[MakeEdgeID(u, v)] = true
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
	for i := range a.Dist {
		if a.Parent(NodeID(i)) != b.Parent(NodeID(i)) || a.Dist[i] != b.Dist[i] {
			t.Fatalf("non-deterministic Dijkstra at node %d", i)
		}
	}
}

// TestSPTreeBytesPerNode pins what a cold SPF tree costs: a float64
// distance and an int32 parent, 12 bytes a node plus a constant for the
// struct. Twenty full runs on an 8 192-node lattice are summed off
// TotalAlloc after a first pass over the same sources has grown the pooled
// scratch, with the collector off so the pool keeps it, and on one P: a
// goroutine moved to another P misses the scratch in the first one's private
// slot and grows a fresh one. A parent stored as a NodeID would read 16.
func TestSPTreeBytesPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	g := megascaleLattice(128, 64)
	n := uint64(g.NumNodes())
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	for range 2 { // the first pass warms the scratch
		runtime.ReadMemStats(&before)
		for i := range runs {
			g.dijkstra(NodeID(i), nil)
		}
		runtime.ReadMemStats(&after)
	}
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if perRun > 12*n+128 {
		t.Fatalf("a cold %d-node tree allocates %d B, %.2f B a node; want at most 12 B a node + 128 B", n, perRun, float64(perRun)/float64(n))
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

// rippleTree is the full run on ripple alone, the tree the bucketed pass must
// reproduce.
func rippleTree(g *Graph, src NodeID, mask *Mask) *SPTree {
	n := g.NumNodes()
	t := &SPTree{Source: src, Dist: make([]float64, n), parent: make([]int32, n)}
	t.clear()
	if mask.NodeBlocked(src) {
		return t
	}
	sc := new(spfScratch)
	sc.begin(n)
	t.Dist[src] = 0
	sc.queue.Push(heapItem{node: src})
	sc.ripple(g, t, mask)
	return t
}

// bucketTree is the full run on the bucketed pass alone; ok is false when
// the pass gave up.
func bucketTree(g *Graph, src NodeID, mask *Mask) (t *SPTree, ok bool) {
	n := g.NumNodes()
	t = &SPTree{Source: src, Dist: make([]float64, n), parent: make([]int32, n)}
	t.clear()
	if mask.NodeBlocked(src) {
		return t, true
	}
	t.Dist[src] = 0
	_, ok = new(spfScratch).bucketPass(g, t, mask)
	return t, ok
}

// sameTree reports the first node where a and b differ in distance bits or
// parent, or Invalid.
func sameTree(a, b *SPTree) NodeID {
	for i := range a.Dist {
		if math.Float64bits(a.Dist[i]) != math.Float64bits(b.Dist[i]) || a.parent[i] != b.parent[i] {
			return NodeID(i)
		}
	}
	return Invalid
}

// TestFullSPFMatchesRipple: from every source, a full run gives ripple's tree
// bit for bit (distances and parents) whether the bucketed pass computes it
// or gives it up, on a tie-heavy lattice healthy and masked, on random graphs
// with and without masks, and on a view. Weights spread over 2⁴⁰ exhaust the
// pass's budget, and a weight of 1e-300 beside weights near 1 rules the pass
// out (stepInv 0); both still give ripple's tree. One full run adds the
// nodes it reaches to SPFCounters().NodesSettled.
func TestFullSPFMatchesRipple(t *testing.T) {
	// every checks every source of g under mask and returns how many times
	// the bucketed pass gave up. Under the race detector, which has nothing
	// to find in one goroutine's runs, it checks every eleventh.
	stride := 1
	if raceEnabled {
		stride = 11
	}
	every := func(name string, g *Graph, mask *Mask) (gaveUp int) {
		t.Helper()
		for s := 0; s < g.NumNodes(); s += stride {
			src := NodeID(s)
			want := rippleTree(g, src, mask)
			if v := sameTree(g.dijkstra(src, mask), want); v != Invalid {
				t.Fatalf("%s, source %d: the full run differs from ripple at node %d", name, src, v)
			}
			if g.stepInv == 0 {
				continue
			}
			got, ok := bucketTree(g, src, mask)
			if !ok {
				gaveUp++
				continue
			}
			if v := sameTree(got, want); v != Invalid {
				t.Fatalf("%s, source %d: the bucketed pass differs from ripple at node %d: %v/%d, want %v/%d",
					name, src, v, got.Dist[v], got.parent[v], want.Dist[v], want.parent[v])
			}
		}
		return gaveUp
	}

	lat := megascaleLattice(40, 40)
	if lat.stepInv == 0 {
		t.Fatal("the lattice's weights rule the bucketed pass out")
	}
	mask := NewMask().BlockNodes(41, 42, 600, 1203)
	for i, e := range lat.Edges() {
		if i%97 == 0 {
			mask.BlockEdge(e.A, e.B)
		}
	}
	for name, m := range map[string]*Mask{"lattice": nil, "masked lattice": mask} {
		if n := every(name, lat, m); n > 0 {
			t.Errorf("%s: the bucketed pass gave up from %d sources", name, n)
		}
	}

	rng := rand.New(rand.NewSource(53))
	for trial := range 30 {
		n := 10 + rng.Intn(70)
		g := randomConnectedGraph(rng, n, 2*n)
		var m *Mask
		if trial%2 == 1 {
			m = NewMask()
			for range 1 + rng.Intn(4) {
				m.BlockNode(NodeID(rng.Intn(n)))
			}
			for _, e := range g.Edges() {
				if rng.Intn(8) == 0 {
					m.BlockEdge(e.A, e.B)
				}
			}
		}
		every(fmt.Sprintf("random graph %d", trial), g, m)
	}

	view, _, err := lat.View(200, 600, []NodeID{1000, 1001})
	if err != nil {
		t.Fatal(err)
	}
	every("view", view, nil)

	// Weights 2^-20 to 2^20: the premise holds (2^40·300 < 2^52), but the
	// pass re-settles too much to stay within budget.
	spread, seen := New(300), map[EdgeID]bool{}
	for i := range 1200 {
		u, v := NodeID(i%299+1), NodeID(rng.Intn(300))
		if i < 299 {
			v = NodeID(rng.Intn(int(u)))
		}
		if u != v && !seen[MakeEdgeID(u, v)] {
			seen[MakeEdgeID(u, v)] = true
			_ = spread.AddEdge(u, v, math.Ldexp(1, rng.Intn(41)-20))
		}
	}
	sg, err := spread.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if sg.stepInv == 0 {
		t.Fatal("weights spread over 2^40 on 300 nodes rule the bucketed pass out")
	}
	if n := every("spread weights", sg, nil); n == 0 {
		t.Error("weights spread over 2^40: the bucketed pass never gave up")
	}

	tiny := New(50)
	for i := 1; i < 50; i++ {
		_ = tiny.AddEdge(NodeID(i-1), NodeID(i), 1+float64(i%3))
	}
	_ = tiny.AddEdge(0, 49, 1e-300)
	_ = tiny.AddEdge(10, 40, 1e-300)
	tg := mustFreeze(tiny)
	if tg.stepInv != 0 {
		t.Fatal("a weight of 1e-300 beside weights near 1 does not rule the bucketed pass out")
	}
	every("a weight of 1e-300", tg, nil)

	before := SPFCounters().NodesSettled
	tr := lat.dijkstra(0, mask)
	reached := 0
	for v := range tr.Dist {
		if tr.Reachable(NodeID(v)) {
			reached++
		}
	}
	if d := SPFCounters().NodesSettled - before; d != uint64(reached) {
		t.Errorf("a full run reaching %d nodes adds %d to NodesSettled", reached, d)
	}
}

// BenchmarkDijkstraLattice measures the full run on a 91×90 lattice, as many
// nodes as a FlatMegascale(8192) plane and more ties, from every 97th source.
func BenchmarkDijkstraLattice(b *testing.B) {
	g := megascaleLattice(91, 90)
	n := g.NumNodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.dijkstra(NodeID(i*97%n), nil)
	}
}
