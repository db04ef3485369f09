package graph_test

// External test package: the point-query oracle drives random Waxman
// topologies, which live in internal/topology — a package that imports graph,
// so the test cannot be in package graph.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"smrp/internal/graph"
	"smrp/internal/topology"
)

// TestPointQueryEquivalence is the point queries' oracle. Over 50 random
// Waxman topologies, each with its Euclidean weights, again with tie-heavy
// integer weights of 1–3 on the same edges, with weights of 0.1, 0.2 and 0.3
// (ties in length that summation order can break by a rounding), and with the
// integer weights but every tenth 1e-300 (no bucket width: the pruned runs
// keep to distance order), it replays random failure/repair sequences. After
// every event, for every node nr as the joiner, the masked D_SPF a session
// reads — RunFrom(src, nr, mask) and then Dist(nr) — and ShortestPath(src,
// nr, mask) must both give the uncached Dijkstra(src, mask)'s Dist[nr] bit for
// bit and its PathTo(nr). Every seventh event asks a second source the same.
// The masks partition the graph, block joiners and now and then the source,
// so the unreachable answers are checked too.
//
// The oracle can tell the source's summation order from the joiner's: on the
// tenths, the first run of RunFrom alone — RunToward(nr, src, mask), its path
// summed from the source end by WeightFrom(src) — must miss the masked tree's
// Dist[nr] by a rounding at least once. Runs under the -race CI gate.
func TestPointQueryEquivalence(t *testing.T) {
	const topos = 50
	reverseMisses := 0
	for ti := 0; ti < topos; ti++ {
		seed := uint64(9000 + ti)
		rng := topology.NewRNG(seed)
		wax, err := topology.Waxman(topology.WaxmanConfig{
			N: 40 + ti%3*15, Alpha: 0.25, Beta: 0.35, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatalf("topo %d: %v", ti, err)
		}
		reweigh := func(unit []float64, tiny int) *graph.Graph {
			b := graph.New(wax.NumNodes())
			r := rand.New(rand.NewSource(int64(seed)))
			for i, e := range wax.Edges() {
				w := unit[r.Intn(3)]
				if tiny > 0 && i%tiny == 0 {
					w = 1e-300
				}
				if err := b.AddEdge(e.A, e.B, w); err != nil {
					t.Fatal(err)
				}
			}
			g, err := b.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			if g.Bucketed() != (tiny == 0) {
				t.Fatalf("topo %d: every %d-th weight 1e-300, bucketed %v", ti, tiny, g.Bucketed())
			}
			return g
		}
		ints, tenths := []float64{1, 2, 3}, []float64{0.1, 0.2, 0.3}
		for wi, g := range []*graph.Graph{wax, reweigh(ints, 0), reweigh(tenths, 0), reweigh(ints, 10)} {
			pointQueryEvents(t, g, rand.New(rand.NewSource(int64(seed)+int64(wi))), func(ev int, src graph.NodeID, mask *graph.Mask) {
				t.Helper()
				tree := graph.ColdDijkstra(g, src, mask)
				sw := g.NewSweep()
				defer sw.Release()
				for v := 0; v < g.NumNodes(); v++ {
					nr := graph.NodeID(v)
					want, wantPath := tree.Dist[v], tree.PathTo(nr)
					reached := sw.RunFrom(src, nr, mask)
					if got := sw.Dist(nr); math.Float64bits(got) != math.Float64bits(want) || reached != tree.Reachable(nr) || !slices.Equal(sw.PathTo(nr), wantPath) {
						t.Fatalf("topo %d weights %d event %d: RunFrom(%d, %d) = %v along %v (reached %v), masked tree %v along %v",
							ti, wi, ev, src, nr, got, sw.PathTo(nr), reached, want, wantPath)
					}
					p, d := g.ShortestPath(src, nr, mask)
					if !slices.Equal(p, wantPath) || math.Float64bits(d) != math.Float64bits(want) {
						t.Fatalf("topo %d weights %d event %d: ShortestPath(%d, %d) = %v, %v; masked tree %v, %v",
							ti, wi, ev, src, nr, p, d, wantPath, want)
					}
					if wi == 2 && sw.RunToward(nr, src, mask) && sw.WeightFrom(src) != want {
						reverseMisses++
					}
				}
			})
		}
	}
	t.Logf("on the tenths, the joiner's run summed from the source missed the masked tree %d times", reverseMisses)
	if reverseMisses == 0 {
		t.Error("on the tenths, the joiner's run summed from the source always gave the masked tree's distance: the oracle cannot tell the summation orders apart")
	}
}

// pointQueryEvents replays 30 events of one to three random failures and
// repairs on g against source 0, calling check after each with the mask as it
// stands, and every seventh event again with a second source.
func pointQueryEvents(t *testing.T, g *graph.Graph, r *rand.Rand, check func(ev int, src graph.NodeID, mask *graph.Mask)) {
	t.Helper()
	edges := g.Edges()
	src := graph.NodeID(0)
	mask := graph.NewMask()
	var blockedNodes []graph.NodeID
	var blockedEdges []graph.EdgeID
	check(-1, src, mask)
	for ev := 0; ev < 30; ev++ {
		for range 1 + r.Intn(3) {
			switch op := r.Intn(10); {
			case op < 4: // fail a node (now and then the source itself)
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
					blockedNodes = slices.Delete(blockedNodes, i, i+1)
				} else if len(blockedEdges) > 0 {
					i := r.Intn(len(blockedEdges))
					e := blockedEdges[i]
					mask.UnblockEdge(e.A, e.B)
					blockedEdges = slices.Delete(blockedEdges, i, i+1)
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
		check(ev, src, mask)
		if ev%7 == 3 {
			check(ev, graph.NodeID(1+ev%(g.NumNodes()-1)), mask)
		}
	}
}

// TestPointQuerySettlesNearPath is the deterministic evidence that a masked
// D_SPF costs the region of the detour, not the graph. On FlatMegascale(8192),
// 8 sources and 50 joiners each, it blocks k random edges of the source's
// healthy tree, or one edge of the joiner's own path to the source, the
// worst single cut. The point query a session asks, RunFrom(src, nr, mask),
// must answer as the masked tree does, which settles every node, and its two
// runs must settle on average at most 96 nodes together. With an infinite
// budget RunPruned would neither prune nor order by the potential, and the
// same queries would settle thousands of nodes.
func TestPointQuerySettlesNearPath(t *testing.T) {
	if graph.RaceEnabled {
		t.Skip("a counter gate, and slow under the race detector")
	}
	g, _, err := topology.FlatMegascale(8192, 2005)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	r := rand.New(rand.NewSource(2005))
	sw := g.NewSweep()
	defer sw.Release()
	for _, k := range []int{0, 1, 4, 16, 64} { // 0: one edge of the joiner's path
		queries, settled := 0, 0
		for range 8 {
			src := graph.NodeID(r.Intn(n))
			healthy := g.Dijkstra(src, nil)
			for range 50 {
				nr := graph.NodeID(r.Intn(n))
				mask := graph.NewMask()
				if path := healthy.PathTo(nr); k == 0 && len(path) > 1 {
					i := r.Intn(len(path) - 1)
					mask.BlockEdge(path[i], path[i+1])
				}
				for range k {
					if v := graph.NodeID(r.Intn(n)); healthy.Parent(v) != graph.Invalid {
						mask.BlockEdge(v, healthy.Parent(v))
					}
				}
				sw.RunFrom(src, nr, mask)
				if got, want := sw.Dist(nr), graph.ColdDijkstra(g, src, mask).Dist[nr]; got != want {
					t.Fatalf("k=%d: D_SPF(%d→%d) = %v, masked tree %v", k, src, nr, got, want)
				}
				queries++
				settled += sw.SettledCount()
			}
		}
		t.Logf("k=%d: %d queries settle %.1f nodes each on %d nodes", k, queries, float64(settled)/float64(queries), n)
		if settled > 96*queries {
			t.Errorf("k=%d: %d point queries settled %d nodes, %.1f each; want at most 96 each", k, queries, settled, float64(settled)/float64(queries))
		}
	}
}

// TestPrunedSweepTinyWeightsStaysAcyclic holds the pruned run on a graph with
// no bucket width to distance order. On the three-member star below, a weight
// of 2⁻⁵⁵ added to a distance of 0.25 leaves it unchanged; a label-correcting
// run from member 1 toward the source, its own link cut, once let node 0 take
// parent 2 where it stood while 2 held parent 0, and the goal's WeightFrom
// then walked that cycle for ever. The run must end, and answer as the masked
// tree from 1 does.
func TestPrunedSweepTinyWeightsStaysAcyclic(t *testing.T) {
	tiny := math.Ldexp(1, -55)
	b := graph.New(7)
	for m, w := range map[graph.NodeID]float64{1: 0.25, 2: tiny, 3: tiny} {
		for _, e := range [][2]graph.NodeID{{m, 0}, {m, m + 3}, {m + 3, 0}} {
			ew := w
			if e != [2]graph.NodeID{m, 0} {
				ew = w * 1.5
			}
			if err := b.AddEdge(e[0], e[1], ew); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if g.Bucketed() {
		t.Fatal("the weights leave the graph a bucket width")
	}
	mask := graph.NewMask()
	mask.BlockEdge(1, 0)
	tree := graph.ColdDijkstra(g, 1, mask)
	done := make(chan string, 1)
	go func() {
		sw := g.NewSweep()
		defer sw.Release()
		var bad string
		if !sw.RunPruned(1, mask, nil, g.Dijkstra(0, nil).Dist, math.MaxFloat64, 0, graph.Unreachable) {
			bad = "the run did not stop at the source"
		} else if p := sw.PathTo(0); sw.Dist(0) != tree.Dist[0] || !slices.Equal(p, tree.PathTo(0)) {
			bad = fmt.Sprintf("the run gives %v along %v, the masked tree %v along %v", sw.Dist(0), p, tree.Dist[0], tree.PathTo(0))
		}
		done <- bad
	}()
	select {
	case bad := <-done:
		if bad != "" {
			t.Fatal(bad)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the pruned run did not end: its parent chain has a cycle")
	}
}
