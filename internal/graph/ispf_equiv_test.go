package graph_test

// External test package: the equivalence property test drives the delta
// repair through random Waxman topologies, which live in internal/topology —
// a package that imports graph, so the test cannot be in package graph.

import (
	"math/rand"
	"testing"

	"smrp/internal/graph"
	"smrp/internal/topology"
)

// TestISPFEquivalence is the iSPF oracle test: over ≥50 random Waxman
// topologies it replays random failure/repair sequences against a cached
// graph (so every query after the first goes through the delta-repair path)
// and, after every event, compares the repaired tree's distances and parents
// against a from-scratch sweep of the same (source, mask). Distances must be
// bit-identical — the studies' byte-stable output depends on it — and the
// parent arrays must match exactly, which also pins parent-chain
// reachability. Runs under the -race CI gate.
func TestISPFEquivalence(t *testing.T) {
	before := graph.SPFCounters()
	const topos = 50
	for ti := 0; ti < topos; ti++ {
		seed := uint64(9000 + ti)
		rng := topology.NewRNG(seed)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: 40 + ti%3*15, Alpha: 0.25, Beta: 0.35, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatalf("topo %d: %v", ti, err)
		}
		edges := g.Edges()
		src := graph.NodeID(0)
		mask := graph.NewMask()
		var blockedNodes []graph.NodeID
		var blockedEdges []graph.EdgeID
		r := rand.New(rand.NewSource(int64(seed)))

		check := func(ev int) {
			t.Helper()
			tree := g.Dijkstra(src, mask)
			sw := g.NewSweep()
			defer sw.Release()
			sw.Run(src, mask, nil)
			for v := 0; v < g.NumNodes(); v++ {
				n := graph.NodeID(v)
				if got, want := tree.Dist[v], sw.Dist(n); got != want {
					t.Fatalf("topo %d event %d: dist[%d] = %v, oracle %v (mask %d elems)",
						ti, ev, v, got, want, len(blockedNodes)+len(blockedEdges))
				}
				if got, want := tree.Parent[v], sw.Parent(n); got != want {
					t.Fatalf("topo %d event %d: parent[%d] = %v, oracle %v",
						ti, ev, v, got, want)
				}
			}
		}

		check(-1) // initial full compute seeds the lineage
		events := 30
		for ev := 0; ev < events; ev++ {
			// 1–3 mutations per event: multi-mutation events make the mask
			// diff contain added AND removed elements simultaneously — the
			// sibling-mask pattern (lineage head computed under {e1}, query
			// under {e2}) that single-step evolution never produces, and
			// exactly the shape that once let a revived edge leak into the
			// failure phase (see ispf.go on phase ordering).
			muts := 1 + r.Intn(3)
			for mi := 0; mi < muts; mi++ {
				switch op := r.Intn(10); {
				case op < 4: // fail a node (occasionally even the source, to hit the fallback)
					n := graph.NodeID(r.Intn(g.NumNodes()))
					if r.Intn(8) != 0 && n == src {
						n = graph.NodeID((int(n) + 1) % g.NumNodes())
					}
					if !mask.NodeBlocked(n) {
						mask.BlockNode(n)
						blockedNodes = append(blockedNodes, n)
					}
				case op < 7: // fail an edge
					e := edges[r.Intn(len(edges))]
					mask.BlockEdge(e.A, e.B)
					blockedEdges = append(blockedEdges, e)
				case op < 9: // repair a failed node or edge
					if len(blockedNodes) > 0 && (len(blockedEdges) == 0 || r.Intn(2) == 0) {
						i := r.Intn(len(blockedNodes))
						mask.UnblockNode(blockedNodes[i])
						blockedNodes = append(blockedNodes[:i], blockedNodes[i+1:]...)
					} else if len(blockedEdges) > 0 {
						i := r.Intn(len(blockedEdges))
						e := blockedEdges[i]
						mask.UnblockEdge(e.A, e.B)
						blockedEdges = append(blockedEdges[:i], blockedEdges[i+1:]...)
					}
				default: // correlated burst: fail two elements at once
					e := edges[r.Intn(len(edges))]
					mask.BlockEdge(e.A, e.B)
					blockedEdges = append(blockedEdges, e)
					n := graph.NodeID(r.Intn(g.NumNodes()))
					if n != src && !mask.NodeBlocked(n) {
						mask.BlockNode(n)
						blockedNodes = append(blockedNodes, n)
					}
				}
			}
			check(ev)
			if ev%7 == 3 {
				// Query a second source so per-source lineages interleave.
				src2 := graph.NodeID(1 + (ev+ti)%(g.NumNodes()-1))
				tree2 := g.Dijkstra(src2, mask)
				sw := g.NewSweep()
				sw.Run(src2, mask, nil)
				for v := 0; v < g.NumNodes(); v++ {
					if tree2.Dist[v] != sw.Dist(graph.NodeID(v)) {
						sw.Release()
						t.Fatalf("topo %d event %d: src2 %d dist[%d] mismatch", ti, ev, src2, v)
					}
				}
				sw.Release()
			}
		}
	}
	// The test is only meaningful if the delta path actually ran.
	if graph.SPFCounters().Sub(before).DeltaRuns == 0 {
		t.Fatal("delta-repair path never exercised")
	}
}

// TestISPFDiffElements pins the Mask diff contract the delta path is built
// on: partition into added/removed, deterministic ordering, bounded fast
// path, nil handling.
func TestISPFDiffElements(t *testing.T) {
	old := graph.NewMask().BlockNode(3).BlockEdge(1, 2)
	cur := graph.NewMask().BlockNode(3).BlockNode(7).BlockEdge(4, 5)

	added, removed, ok := cur.AppendDiff(nil, nil, old, graph.DefaultDiffLimit)
	if !ok {
		t.Fatal("small diff reported as oversized")
	}
	if len(added) != 2 || !(!added[0].IsEdge && added[0].Node == 7) ||
		!(added[1].IsEdge && added[1].Edge == graph.MakeEdgeID(4, 5)) {
		t.Fatalf("added = %+v", added)
	}
	if len(removed) != 1 || !(removed[0].IsEdge && removed[0].Edge == graph.MakeEdgeID(1, 2)) {
		t.Fatalf("removed = %+v", removed)
	}

	// Nil other: everything in cur is "added".
	added, removed, ok = cur.AppendDiff(nil, nil, nil, graph.DefaultDiffLimit)
	if !ok || len(added) != 3 || len(removed) != 0 {
		t.Fatalf("diff vs nil: added=%d removed=%d ok=%v", len(added), len(removed), ok)
	}

	// Identical masks diff to nothing.
	added, removed, ok = cur.AppendDiff(nil, nil, cur.Clone(), graph.DefaultDiffLimit)
	if !ok || len(added)+len(removed) != 0 {
		t.Fatalf("self diff: added=%d removed=%d ok=%v", len(added), len(removed), ok)
	}

	// Oversized diffs take the bounded fast path.
	big := graph.NewMask()
	for i := 0; i <= graph.DefaultDiffLimit; i++ {
		big.BlockNode(graph.NodeID(100 + i))
	}
	if _, _, ok := big.AppendDiff(nil, nil, graph.NewMask(), graph.DefaultDiffLimit); ok {
		t.Fatal("oversized diff not rejected")
	}
	// Quick reject must also trigger on the count difference alone.
	if _, _, ok := graph.NewMask().AppendDiff(nil, nil, big, graph.DefaultDiffLimit); ok {
		t.Fatal("oversized reverse diff not rejected")
	}
}
