package graph

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
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
// checked bit-identical against its still-building twin —
// Edges, HasEdge, EdgeWeight, AvgDegree, Neighbors order, NumEdges, the
// deterministic footprint delta, and full Dijkstra trees from several
// sources (distances and parents compared exactly).
func TestFrozenGraphEquivalence(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		ref, froze := buildRandomPair(rng)
		froze.Freeze()
		if !froze.Frozen() {
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
		for u := NodeID(0); u < NodeID(n); u++ {
			if !slices.Equal(froze.Neighbors(u), ref.Neighbors(u)) {
				t.Fatalf("trial %d: Neighbors(%d) diverge", trial, u)
			}
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
		if !fc.Frozen() {
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
