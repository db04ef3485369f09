package graph

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// buildRandomPair replays one random build sequence (AddNode/AddEdge, with
// occasional Clone swaps so clone lineage is exercised mid-build) into two
// graphs and returns them. The caller freezes one and keeps the other as the
// build-phase reference.
func buildRandomPair(rng *rand.Rand) (ref, froze *Graph) {
	ref, froze = New(0), New(0)
	steps := 40 + rng.Intn(120)
	for i := 0; i < steps; i++ {
		switch {
		case ref.NumNodes() < 2 || rng.Intn(4) == 0:
			p := Point{X: rng.Float64(), Y: rng.Float64()}
			ref.AddNode(p)
			froze.AddNode(p)
		case rng.Intn(8) == 0:
			// Continue the build on a mid-sequence clone of each side.
			ref, froze = ref.Clone(), froze.Clone()
		default:
			u := NodeID(rng.Intn(ref.NumNodes()))
			v := NodeID(rng.Intn(ref.NumNodes()))
			w := 0.1 + rng.Float64()
			errA := ref.AddEdge(u, v, w)
			errB := froze.AddEdge(u, v, w)
			if (errA == nil) != (errB == nil) {
				panic("build divergence")
			}
		}
	}
	return ref, froze
}

// TestFrozenGraphEquivalence is the frozen-graph property test: random build
// sequences of AddNode/AddEdge/Clone, then every read API of the frozen graph
// checked bit-identical against its still-building twin — Edges, HasEdge,
// EdgeWeight, AvgDegree, NumEdges, the deterministic footprint delta, and
// full Dijkstra trees from several sources (distances and parents compared
// exactly) — and each frozen row holding its twin's arcs, sorted by (weight,
// neighbour).
func TestFrozenGraphEquivalence(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		ref, froze := buildRandomPair(rng)
		froze.Freeze()
		if !froze.frozen {
			t.Fatal("Freeze did not mark the graph frozen")
		}
		froze.Freeze() // idempotent

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
		n := ref.NumNodes()
		inserted := make(insertionLog, n)
		for u := range inserted {
			inserted[u] = ref.Neighbors(NodeID(u))
		}
		checkRowOrder(t, froze, inserted)
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
		// Dijkstra output bit-identical from a few sources (and from the
		// frozen clone, which shares the immutable storage).
		fc := froze.Clone()
		if !fc.frozen {
			t.Fatal("clone of frozen graph is not frozen")
		}
		for s := 0; s < 3 && s < n; s++ {
			src := NodeID(rng.Intn(n))
			rt := ref.Dijkstra(src, nil)
			for _, g2 := range []*Graph{froze, fc} {
				ft := g2.Dijkstra(src, nil)
				if !slices.Equal(ft.Dist, rt.Dist) || !slices.Equal(ft.Parent, rt.Parent) {
					t.Fatalf("trial %d: Dijkstra(%d) diverges on frozen graph", trial, src)
				}
			}
		}
		// Footprint: freezing re-packs the rows and adds no edge index, so
		// the accounting must never grow.
		if froze.MemoryFootprint() > ref.MemoryFootprint() {
			t.Fatalf("trial %d: frozen footprint %d exceeds build-phase %d",
				trial, froze.MemoryFootprint(), ref.MemoryFootprint())
		}

		// Immutability contract.
		if err := froze.AddEdge(0, 1, 1); !errors.Is(err, ErrFrozen) {
			t.Fatalf("trial %d: AddEdge on frozen graph: %v, want ErrFrozen", trial, err)
		}
		mustPanic := func(f func()) {
			defer func() {
				if recover() == nil {
					t.Fatalf("trial %d: mutator on frozen graph did not panic", trial)
				}
			}()
			f()
		}
		mustPanic(func() { froze.AddNode(Point{}) })
		mustPanic(func() { froze.SetPos(0, Point{X: 1}) })
	}
}

// TestFrozenGraphMaskedSweeps pins the frozen representation under the
// failure machinery: masked Dijkstra and iSPF-cached lookups answer
// identically on the frozen and still-building twins.
func TestFrozenGraphMaskedSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	ref, froze := buildRandomPair(rng)
	froze.Freeze()
	ref.EnableSPFCache()
	froze.EnableSPFCache()
	n := ref.NumNodes()
	mask := NewMask()
	for round := 0; round < 20; round++ {
		if rng.Intn(2) == 0 {
			mask.BlockNode(NodeID(rng.Intn(n)))
		} else if es := ref.Edges(); len(es) > 0 {
			e := es[rng.Intn(len(es))]
			mask.BlockEdge(e.A, e.B)
		}
		src := NodeID(rng.Intn(n))
		rt := ref.Dijkstra(src, mask)
		ft := froze.Dijkstra(src, mask)
		if !slices.Equal(ft.Dist, rt.Dist) || !slices.Equal(ft.Parent, rt.Parent) {
			t.Fatalf("round %d: masked Dijkstra(%d) diverges", round, src)
		}
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
	build := func(star bool) (*Graph, insertionLog) {
		rng := rand.New(rand.NewSource(2020))
		g, log := New(leaves+1), make(insertionLog, leaves+1)
		for i := 1; i <= leaves; i++ {
			u := NodeID(i - 1)
			if star {
				u = 0
			}
			log.addEdge(g, u, NodeID(i), float64(1+rng.Intn(50)))
		}
		return g, log
	}
	g, log := build(true)
	g.Freeze()
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
			g, _ := build(star)
			start := time.Now()
			g.Freeze()
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
// shorter endpoint row, on a building and on a frozen graph: an
// evaluation-scale edge set with a uniform query mix of present and absent
// edges.
func BenchmarkEdgeWeightLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := New(2000)
	for g.NumEdges() < 8000 {
		u := NodeID(rng.Intn(2000))
		v := NodeID(rng.Intn(2000))
		_ = g.AddEdge(u, v, 0.1+rng.Float64())
	}
	queries := make([]EdgeID, 4096)
	edges := g.Edges()
	for i := range queries {
		if i%2 == 0 {
			queries[i] = edges[rng.Intn(len(edges))]
		} else {
			queries[i] = MakeEdgeID(NodeID(rng.Intn(2000)), NodeID(rng.Intn(2000)))
		}
	}
	run := func(b *testing.B, g *Graph) {
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
	frozen := g.Clone().Freeze()
	b.Run("building", func(b *testing.B) { run(b, g) })
	b.Run("frozen", func(b *testing.B) { run(b, frozen) })
}
