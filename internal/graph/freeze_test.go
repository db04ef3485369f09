package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// buildRandom replays one random build sequence (AddNode/AddEdge) into a
// builder and returns it with its insertion log.
func buildRandom(rng *rand.Rand) (*Builder, insertionLog) {
	b, log := New(0), insertionLog{}
	steps := 40 + rng.Intn(120)
	for i := 0; i < steps; i++ {
		if b.NumNodes() < 2 || rng.Intn(4) == 0 {
			b.AddNode(Point{X: rng.Float64(), Y: rng.Float64()})
			log = append(log, nil)
			continue
		}
		u := NodeID(rng.Intn(b.NumNodes()))
		v := NodeID(rng.Intn(b.NumNodes()))
		log.addEdge(b, u, v, 0.1+rng.Float64())
	}
	return b, log
}

// unsorted lays the log's rows out in the order they were inserted, on the
// positions pos, as a graph Freeze never sorted: the reference the frozen
// graph's reads must match.
func unsorted(log insertionLog, pos []Point) *Graph {
	g := &Graph{lo: make([]int32, len(log)), hi: make([]int32, len(log)), pos: pos}
	for u, row := range log {
		g.lo[u] = int32(len(g.to))
		for _, a := range row {
			g.to, g.w = append(g.to, int32(a.To)), append(g.w, a.Weight)
		}
		g.hi[u] = int32(len(g.to))
	}
	g.edges = len(g.to) / 2
	return g
}

// checkTree holds a shortest-path tree to a reference that reads no row
// order: Bellman-Ford distances under the mask, and as each reached node's
// parent the least-numbered neighbour whose distance plus the arc is exactly
// the node's.
func checkTree(t *testing.T, what string, g *Graph, tr *SPTree, mask *Mask) {
	t.Helper()
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	if !mask.NodeBlocked(tr.Source) {
		dist[tr.Source] = 0
	}
	edges := g.Edges()
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if mask.EdgeBlocked(e.A, e.B) {
				continue
			}
			w, _ := g.EdgeWeight(e.A, e.B)
			for _, d := range [][2]NodeID{{e.A, e.B}, {e.B, e.A}} {
				if nd := dist[d[0]] + w; nd < dist[d[1]] {
					dist[d[1]], changed = nd, true
				}
			}
		}
	}
	for v := NodeID(0); int(v) < n; v++ {
		parent := Invalid
		if v != tr.Source && dist[v] < Unreachable {
			for _, e := range edges {
				u := e.A
				if u == v {
					u = e.B
				} else if e.B != v {
					continue
				}
				if w, _ := g.EdgeWeight(u, v); !mask.EdgeBlocked(u, v) && dist[u]+w == dist[v] && (parent == Invalid || u < parent) {
					parent = u
				}
			}
		}
		if tr.Dist[v] != dist[v] || tr.Parent(v) != parent {
			t.Fatalf("%s: node %d at (%v, parent %d), reference (%v, parent %d)", what, v, tr.Dist[v], tr.Parent(v), dist[v], parent)
		}
	}
}

// TestFrozenGraphEquivalence is the frozen-graph property test: random build
// sequences of AddNode/AddEdge, then every read API of the frozen graph
// checked bit-identical against the rows in insertion order — Edges, HasEdge,
// EdgeWeight, AvgDegree, NumEdges, the deterministic footprint — each frozen
// row holding the arcs inserted into it, sorted by (weight, neighbour), and
// full Dijkstra trees from several sources against a reference that reads no
// row order.
func TestFrozenGraphEquivalence(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		b, log := buildRandom(rng)
		froze := mustFreeze(b)
		ref := unsorted(log, froze.pos)

		if got, want := froze.NumNodes(), ref.NumNodes(); got != want {
			t.Fatalf("trial %d: NumNodes %d != %d", trial, got, want)
		}
		if got, want := froze.NumEdges(), ref.NumEdges(); got != want {
			t.Fatalf("trial %d: NumEdges %d != %d", trial, got, want)
		}
		if got, want := froze.AvgDegree(), ref.AvgDegree(); got != want {
			t.Fatalf("trial %d: AvgDegree %v != %v", trial, got, want)
		}
		if !slices.Equal(froze.Edges(), ref.Edges()) {
			t.Fatalf("trial %d: Edges diverge", trial)
		}
		checkRowOrder(t, froze, log)
		n := ref.NumNodes()
		for u := NodeID(0); u < NodeID(n); u++ {
			for v := NodeID(0); v < NodeID(n); v++ {
				hw, hok := froze.EdgeWeight(u, v)
				rw, rok := ref.EdgeWeight(u, v)
				if hok != rok || hw != rw {
					t.Fatalf("trial %d: EdgeWeight(%d,%d) = (%v,%v) want (%v,%v)",
						trial, u, v, hw, hok, rw, rok)
				}
				if froze.HasEdge(u, v) != ref.HasEdge(u, v) {
					t.Fatalf("trial %d: HasEdge(%d,%d) diverges", trial, u, v)
				}
			}
		}
		for s := 0; s < 3 && s < n; s++ {
			src := NodeID(rng.Intn(n))
			checkTree(t, fmt.Sprintf("trial %d: Dijkstra(%d)", trial, src), froze, froze.Dijkstra(src, nil), nil)
		}
		if froze.MemoryFootprint() != ref.MemoryFootprint() {
			t.Fatalf("trial %d: frozen footprint %d, built %d", trial, froze.MemoryFootprint(), ref.MemoryFootprint())
		}
	}
}

// TestFreezeInPlace: Freeze lays a build out in one block of exactly its
// arcs and sorts each row where it lies, the offsets one array whose two
// windows are the row bounds, and leaves the builder empty. A build recorded
// edge by edge with AddEdge and the same edges recorded as runs freeze to
// the same block, each row in frozen order holding the arcs it was built
// with, and a graph large enough to sort on several goroutines freezes to
// the same rows as on one.
func TestFreezeInPlace(t *testing.T) {
	build := func(runs bool) (*Builder, insertionLog) {
		b, log := waxmanBuild(rand.New(rand.NewSource(7)), 300, 0.9, 0.6)
		if !runs {
			return b, log
		}
		r := New(b.NumNodes())
		var tr testRun
		for u := range log {
			for _, a := range log[u] {
				if NodeID(u) < a.To {
					tr.ends, tr.w = append(tr.ends, [2]int32{int32(u), int32(a.To)}), append(tr.w, a.Weight)
				}
			}
		}
		r.AddRuns(runsOf([]testRun{tr}))
		return r, log
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	edgesB, log := build(false)
	runsB, _ := build(true)
	edges, runs := mustFreeze(edgesB), mustFreeze(runsB)
	if 2*edges.NumEdges() < 2*sortArcsPerWorker {
		t.Fatalf("%d arcs sort on one goroutine; the parallel branch goes untested", 2*edges.NumEdges())
	}
	if edgesB.NumNodes() != 0 || runsB.NumNodes() != 0 {
		t.Fatal("a builder holds nodes after Freeze")
	}
	for _, g := range []*Graph{edges, runs} {
		checkRowOrder(t, g, log)
		checkLayout(t, "frozen", g, nil)
		if cap(g.to) != len(g.to) || cap(g.w) != len(g.w) {
			t.Fatalf("frozen block of %d arcs has room for %d", len(g.to), cap(g.to))
		}
	}
	sameBlock(t, "runs", runs, edges)

	runtime.GOMAXPROCS(1)
	oneB, _ := build(true)
	sameBlock(t, "on one goroutine", mustFreeze(oneB), edges)
}

// TestFrozenGraphMaskedSweeps pins the frozen representation under the
// failure machinery: masked Dijkstra, cold and through the SPF cache's delta
// repairs, answers as the order-free reference does.
func TestFrozenGraphMaskedSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	b, _ := buildRandom(rng)
	g := mustFreeze(b)
	n := g.NumNodes()
	mask := NewMask()
	for round := 0; round < 20; round++ {
		if rng.Intn(2) == 0 {
			mask.BlockNode(NodeID(rng.Intn(n)))
		} else if es := g.Edges(); len(es) > 0 {
			e := es[rng.Intn(len(es))]
			mask.BlockEdge(e.A, e.B)
		}
		src := NodeID(rng.Intn(n))
		what := fmt.Sprintf("round %d: masked Dijkstra(%d)", round, src)
		checkTree(t, what, g, g.dijkstra(src, mask), mask)
		checkTree(t, what+" cached", g, g.Dijkstra(src, mask), mask)
	}
}

// TestFrozenHubRows freezes a 20 000-leaf star whose weights repeat, the row
// sortRow hands to the library sort: the hub's row comes out sorted by
// (weight, neighbour), sweeps from the hub and from leaves match the reference
// loop and cut the hub's row short, and Freeze stays sub-quadratic. The star
// may take at most 50 times what a path with as many arcs takes; measured on
// a 2-vCPU Xeon VM it takes about 9 times, and an insertion sort of the hub's
// row about 350 times.
func TestFrozenHubRows(t *testing.T) {
	const leaves = 20000
	build := func(star bool) (*Builder, insertionLog) {
		rng := rand.New(rand.NewSource(2020))
		b, log := New(leaves+1), make(insertionLog, leaves+1)
		for i := 1; i <= leaves; i++ {
			u := NodeID(i - 1)
			if star {
				u = 0
			}
			log.addEdge(b, u, NodeID(i), float64(1+rng.Intn(50)))
		}
		return b, log
	}
	b, log := build(true)
	g := mustFreeze(b)
	if tied := checkRowOrder(t, g, log); tied == 0 {
		t.Fatal("the hub's row holds no two equal weights")
	}
	rng := rand.New(rand.NewSource(2021))
	var cov sweepCoverage
	for _, src := range []NodeID{0, 1, leaves / 2, leaves} {
		compareSweeps(t, rng, g, src, randomSweepMask(rng, g, src), &cov)
	}
	if cov.rowsCutShort == 0 {
		t.Fatalf("no sweep cut the hub's row short: %+v", cov)
	}

	if testing.Short() {
		return // a time bound means nothing under the race detector
	}
	fastest := func(star bool) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			b, _ := build(star)
			start := time.Now()
			mustFreeze(b)
			best = min(best, time.Since(start))
		}
		return best
	}
	hub, path := fastest(true), fastest(false)
	t.Logf("Freeze: star %v, path %v", hub, path)
	if hub > 50*path {
		t.Errorf("freezing the star took %v, more than 50 times the path's %v", hub, path)
	}
}

// BenchmarkEdgeWeightLookup measures the edge-weight probe, a scan of the
// shorter endpoint row: an evaluation-scale edge set with a uniform query mix
// of present and absent edges.
func BenchmarkEdgeWeightLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	build, seen := New(2000), map[EdgeID]bool{}
	for len(seen) < 8000 {
		u := NodeID(rng.Intn(2000))
		v := NodeID(rng.Intn(2000))
		if e := MakeEdgeID(u, v); !seen[e] && build.AddEdge(u, v, 0.1+rng.Float64()) == nil {
			seen[e] = true
		}
	}
	g := mustFreeze(build)
	queries := make([]EdgeID, 4096)
	edges := g.Edges()
	for i := range queries {
		if i%2 == 0 {
			queries[i] = edges[rng.Intn(len(edges))]
		} else {
			queries[i] = MakeEdgeID(NodeID(rng.Intn(2000)), NodeID(rng.Intn(2000)))
		}
	}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		q := queries[i&(len(queries)-1)]
		if w, ok := g.EdgeWeight(q.A, q.B); ok {
			sink += w
		}
	}
	if math.IsNaN(sink) {
		b.Fatal("unreachable")
	}
}
