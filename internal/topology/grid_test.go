package topology

import (
	"math"
	"testing"

	"smrp/internal/graph"
)

// graphsIdentical fails the test unless a and b have identical node
// positions, edge sets, and edge weights.
func graphsIdentical(t *testing.T, a, b *graph.Graph, label string) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() {
		t.Fatalf("%s: node counts differ: %d vs %d", label, a.NumNodes(), b.NumNodes())
	}
	for n := 0; n < a.NumNodes(); n++ {
		if a.Pos(graph.NodeID(n)) != b.Pos(graph.NodeID(n)) {
			t.Fatalf("%s: position of node %d differs", label, n)
		}
	}
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatalf("%s: edge counts differ: %d vs %d", label, len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("%s: edge %d differs: %v vs %v", label, i, ae[i], be[i])
		}
		wa, _ := a.EdgeWeight(ae[i].A, ae[i].B)
		wb, _ := b.EdgeWeight(be[i].A, be[i].B)
		if wa != wb {
			t.Fatalf("%s: weight of %v differs: %v vs %v", label, ae[i], wa, wb)
		}
	}
}

// TestGridWaxmanMatchesPairwise pins the tentpole equivalence: the bucketed
// generator must produce the exact same graph as an O(N²) scan of the same
// truncated model — same placement stream, same keyed per-pair randomness —
// across unit-square and megascale-plane shapes, with and without
// Connectify.
func TestGridWaxmanMatchesPairwise(t *testing.T) {
	cases := []struct {
		name string
		cfg  GridWaxmanConfig
	}{
		{"unit-square-paper-params", GridWaxmanConfig{N: 250, Alpha: 0.2, Beta: 0.15}},
		{"unit-square-dense", GridWaxmanConfig{N: 150, Alpha: 0.9, Beta: 0.6, EnsureConnected: true}},
		{"plane-constant-density", GridWaxmanConfig{
			N: 600, Alpha: 0.9, Beta: 0.6,
			Side: math.Sqrt(600 / megascaleFlatDensity), L: math.Sqrt2,
		}},
		{"plane-connectified", GridWaxmanConfig{
			N: 400, Alpha: 0.9, Beta: 0.6,
			Side: math.Sqrt(400 / megascaleFlatDensity), L: math.Sqrt2,
			EnsureConnected: true,
		}},
		{"tight-pmin", GridWaxmanConfig{N: 200, Alpha: 0.5, Beta: 0.3, PMin: 0.05}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				gg, st, err := GridWaxman(tc.cfg, NewRNG(seed))
				if err != nil {
					t.Fatalf("grid: %v", err)
				}
				pg, err := pairwiseGridWaxman(tc.cfg, NewRNG(seed))
				if err != nil {
					t.Fatalf("pairwise: %v", err)
				}
				graphsIdentical(t, gg, pg, tc.name)
				if gg.NumEdges() == 0 {
					t.Fatalf("%s seed %d: generated no edges", tc.name, seed)
				}
				maxProbes := int64(tc.cfg.N) * int64(tc.cfg.N-1) / 2
				if st.Probed > maxProbes {
					t.Fatalf("%s: grid probed %d pairs, more than the %d the pairwise scan does",
						tc.name, st.Probed, maxProbes)
				}
			}
		})
	}
}

// TestGridWaxmanDistributionEquivalence checks that at small N in the unit
// square the truncated grid model is distribution-equivalent to the classic
// streamed Waxman generator: with the default PMin the truncation discards
// only pairs with p < 1e-3, so mean degree over many seeds must agree
// closely. (Exact per-seed equality is impossible — the classic generator
// consumes stream randomness per pair — so this is a statistical check; the
// exact-equality check against the pairwise reference is above.)
func TestGridWaxmanDistributionEquivalence(t *testing.T) {
	const n = 200
	const seeds = 40
	classicCfg := WaxmanConfig{N: n, Alpha: 0.2, Beta: 0.15}
	gridCfg := GridWaxmanConfig{N: n, Alpha: 0.2, Beta: 0.15}
	var classicDeg, gridDeg float64
	for seed := uint64(100); seed < 100+seeds; seed++ {
		cg, err := Waxman(classicCfg, NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		gg, _, err := GridWaxman(gridCfg, NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		classicDeg += cg.AvgDegree()
		gridDeg += gg.AvgDegree()
	}
	classicDeg /= seeds
	gridDeg /= seeds
	// Truncation can only remove edges, and removes at most PMin per pair in
	// probability: expected degree deficit < N·PMin = 0.2. Allow generous
	// sampling noise on top.
	if gridDeg > classicDeg+0.15 {
		t.Fatalf("grid mean degree %.3f exceeds classic %.3f (truncation can only remove edges)",
			gridDeg, classicDeg)
	}
	if classicDeg-gridDeg > 0.35 {
		t.Fatalf("grid mean degree %.3f too far below classic %.3f", gridDeg, classicDeg)
	}
	if gridDeg < 2 {
		t.Fatalf("grid mean degree %.3f implausibly low", gridDeg)
	}
}

// TestGridProbeReduction is the deterministic ≥10× evidence at N=50k: the
// grid generator must probe at most a tenth of the N(N−1)/2 pairs the
// pairwise scan distance-checks (in practice it is >100× fewer on the
// constant-density plane). Counter-based so it means the same thing on any
// machine; the wall-clock companion is BenchmarkMegascaleGeneration.
func TestGridProbeReduction(t *testing.T) {
	const n = 50_000
	g, st, err := FlatMegascale(n, 2005)
	if err != nil {
		t.Fatal(err)
	}
	pairwiseProbes := int64(n) * int64(n-1) / 2
	if st.Probed*10 > pairwiseProbes {
		t.Fatalf("grid probed %d pairs at N=%d; need ≤ %d (10× fewer than pairwise)",
			st.Probed, n, pairwiseProbes/10)
	}
	t.Logf("N=%d: grid probed %d pairs vs %d pairwise (%.0f× reduction), %d cells, %d edges",
		n, st.Probed, pairwiseProbes, float64(pairwiseProbes)/float64(st.Probed), st.Cells*st.Cells, g.NumEdges())
	if !g.Connected(nil) {
		t.Fatal("flat megascale graph not connected")
	}
	if d := g.AvgDegree(); d < 3 || d > 12 {
		t.Fatalf("flat megascale avg degree %.2f outside sane range [3, 12]", d)
	}
}

// TestMegascaleComposer checks the sized hierarchy: realized node count
// is a whole tree of domains, the graph is connected, domain attribution is dense
// and consistent, and regenerating with the same seed is byte-identical
// while a different seed is not.
func TestMegascaleComposer(t *testing.T) {
	cfg := MegascaleConfig{TargetNodes: 2000, NodesPerDomain: 50}
	topo, err := GenerateMegascale(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg.withDefaults()
	f, _ := c.fanoutFor()
	domains, _ := treeDomains(f, c.Levels, c.NodesPerDomain)
	if got, want := topo.Graph.NumNodes(), domains*c.NodesPerDomain; got != want {
		t.Fatalf("realized %d nodes, %d domains of %d make %d", got, domains, c.NodesPerDomain, want)
	}
	if got := topo.Graph.NumNodes(); got < cfg.TargetNodes {
		t.Fatalf("realized %d nodes, below target %d", got, cfg.TargetNodes)
	}
	if !topo.Graph.Connected(nil) {
		t.Fatal("megascale hierarchy not connected")
	}
	seen := 0
	for di, d := range topo.Domains {
		for _, n := range d.Nodes {
			if topo.DomainOf(n) != di {
				t.Fatalf("DomainOf(%d) = %d, node listed in domain %d", n, topo.DomainOf(n), di)
			}
			seen++
		}
		if d.Parent >= 0 {
			if topo.DomainOf(d.Attach) != d.Parent {
				t.Fatalf("domain %d attach node %d not in parent %d", di, d.Attach, d.Parent)
			}
			if !topo.Graph.HasEdge(d.Gateway, d.Attach) {
				t.Fatalf("domain %d uplink edge missing", di)
			}
		}
	}
	if seen != topo.Graph.NumNodes() {
		t.Fatalf("domains cover %d nodes, graph has %d", seen, topo.Graph.NumNodes())
	}
	if topo.DomainOf(graph.NodeID(-1)) != -1 || topo.DomainOf(graph.NodeID(topo.Graph.NumNodes())) != -1 {
		t.Fatal("DomainOf out-of-range lookup not -1")
	}

	again, err := GenerateMegascale(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	graphsIdentical(t, topo.Graph, again.Graph, "same-seed regeneration")
	other, err := GenerateMegascale(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if other.Graph.NumEdges() == topo.Graph.NumEdges() {
		same := true
		ae, be := topo.Graph.Edges(), other.Graph.Edges()
		for i := range ae {
			if ae[i] != be[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical edge sets")
		}
	}
}

// TestConnectifyCentroidLargeGraph pins the capped Connectify path: a large
// deliberately fragmented graph must come out connected via the centroid
// pick, deterministically.
func TestConnectifyCentroidLargeGraph(t *testing.T) {
	const n = connectifyExactCap + 1000
	build := func() *graph.Graph {
		b := graph.New(n)
		rng := NewRNG(42)
		for i := 0; i < n; i++ {
			b.SetPos(graph.NodeID(i), graph.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
		}
		// 50 disjoint chains.
		const chains = 50
		per := n / chains
		for c := 0; c < chains; c++ {
			for i := c * per; i+1 < (c+1)*per && i+1 < n; i++ {
				if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := Connectify(b); err != nil {
			t.Fatal(err)
		}
		return b.Freeze()
	}
	g := build()
	if !g.Connected(nil) {
		t.Fatal("centroid connectify left graph disconnected")
	}
	h := build()
	graphsIdentical(t, g, h, "centroid connectify determinism")
}

// BenchmarkMegascaleGeneration is the wall-clock companion to
// TestGridProbeReduction: grid vs pairwise generation of the same truncated
// model at N=50k. The grid arm is the production path (FlatMegascale); the
// pairwise arm is the O(N²) reference.
func BenchmarkMegascaleGeneration(b *testing.B) {
	const n = 50_000
	cfg := GridWaxmanConfig{
		N: n, Alpha: 0.9, Beta: 0.6,
		Side: math.Sqrt(n / megascaleFlatDensity), L: math.Sqrt2,
	}
	b.Run("grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := GridWaxman(cfg, NewRNG(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pairwiseGridWaxman(cfg, NewRNG(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestMegascaleGenerationAllocs holds GenerateMegascale(10 000) to at most
// 2 000 allocations: a handful per domain (its stream and its edge buffer)
// plus one block each for the rows, positions and indexes. Rows grown by
// append, or a map per domain, take tens of thousands.
func TestMegascaleGenerationAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := GenerateMegascale(MegascaleConfig{TargetNodes: 10_000}, 2005); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("GenerateMegascale(10 000): %.0f allocations", allocs)
	if allocs > 2000 {
		t.Errorf("GenerateMegascale(10 000): %.0f allocations, want at most 2 000", allocs)
	}
}

// BenchmarkGenerateHierarchy is the hierarchical arm's wall-clock
// companion: GenerateMegascale at 30 000 nodes (307 domains of 100), the
// build whose domains are wired on GOMAXPROCS workers, so -cpu 1,2 shows
// what the workers buy.
func BenchmarkGenerateHierarchy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateMegascale(MegascaleConfig{TargetNodes: 30_000}, 2005); err != nil {
			b.Fatal(err)
		}
	}
}

// pairwiseGridWaxman is the O(N²) reference for the same truncated model:
// identical placement, identical keyed per-pair randomness, all N(N−1)/2
// pairs scanned. Tests pin GridWaxman byte-identical to it; the megascale
// generation benchmark measures the gap.
func pairwiseGridWaxman(cfg GridWaxmanConfig, rng *RNG) (*graph.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	b, pairSeed := placeNodes(cfg, rng)
	cut := cfg.cutoff()
	cut2 := cut * cut
	dec := newWaxmanDecider(cfg.Alpha, cfg.Beta*cfg.L, cut2)
	edges := make([]graph.EdgeID, 0, cfg.N*4)
	pos := make([]graph.Point, cfg.N)
	for n := range pos {
		pos[n] = b.Pos(graph.NodeID(n))
	}
	for u := 0; u < cfg.N; u++ {
		pu := pos[u]
		for v := u + 1; v < cfg.N; v++ {
			pv := pos[v]
			dx, dy := pu.X-pv.X, pu.Y-pv.Y
			d2 := dx*dx + dy*dy
			if d2 > cut2 {
				continue
			}
			if dec.accept(pairUniform(pairSeed, graph.NodeID(u), graph.NodeID(v)), d2) {
				edges = append(edges, graph.MakeEdgeID(graph.NodeID(u), graph.NodeID(v)))
			}
		}
	}
	if err := insertEdges(b, edges, cfg.EnsureConnected); err != nil {
		return nil, err
	}
	return b.Freeze(), nil
}
