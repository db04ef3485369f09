package graph

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
)

// TestSweepMatchesDijkstra cross-checks the pooled sweep against the public
// Dijkstra tree on random graphs, including masked runs.
func TestSweepMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomConnectedGraph(rng, 50, 120)
		var mask *Mask
		if trial%2 == 1 {
			mask = NewMask().BlockNode(NodeID(rng.Intn(50)))
		}
		src := NodeID(rng.Intn(50))
		tr := g.Dijkstra(src, mask)

		s := g.NewSweep()
		s.Run(src, mask, nil)
		for v := 0; v < 50; v++ {
			n := NodeID(v)
			if tr.Reachable(n) != s.Reached(n) {
				t.Fatalf("trial %d node %d: reachability mismatch", trial, v)
			}
			if !tr.Reachable(n) {
				continue
			}
			if tr.Dist[n] != s.Dist(n) || tr.Parent(n) != s.Parent(n) {
				t.Fatalf("trial %d node %d: (dist,parent)=(%v,%d) sweep (%v,%d)",
					trial, v, tr.Dist[n], tr.Parent(n), s.Dist(n), s.Parent(n))
			}
		}
		s.Release()
	}
}

// TestSweepAbsorbing checks absorbing semantics: absorbing nodes settle as
// endpoints but never appear in the interior of any sweep path.
func TestSweepAbsorbing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnectedGraph(rng, 60, 150)
	absorbing := map[NodeID]bool{5: true, 17: true, 23: true, 42: true}
	src := NodeID(0)

	s := g.NewSweep()
	defer s.Release()
	s.Run(src, nil, func(n NodeID) bool { return absorbing[n] })

	for v := 0; v < 60; v++ {
		p := s.PathTo(NodeID(v))
		for i, n := range p {
			if absorbing[n] && i != len(p)-1 && n != src {
				t.Fatalf("absorbing node %d interior to path %v", n, p)
			}
		}
	}

	// Cross-check each absorbing node's distance against a masked
	// ShortestPath that blocks the other absorbing nodes.
	for a := range absorbing {
		mask := NewMask()
		for b := range absorbing {
			if b != a {
				mask.BlockNode(b)
			}
		}
		p, d := g.ShortestPath(src, a, mask)
		if (p == nil) != !s.Reached(a) {
			t.Fatalf("absorbing %d: reachability mismatch", a)
		}
		if p != nil && d != s.Dist(a) {
			t.Fatalf("absorbing %d: dist %v, masked SPF %v", a, s.Dist(a), d)
		}
	}
}

// TestSweepAbsorbed holds Absorbed to the absorbing nodes a run to exhaustion
// reaches, each listed once: the source never (it is relaxed, not absorbed),
// and a node a directed run settles again not twice. The directed runs are
// keyed by SPF distances from another node on planes whose paths tie but for
// a rounding (tiedPlane with unit 0.1), a potential consistent only to that
// rounding, and the test asserts that some of them settle an absorbing node
// again.
func TestSweepAbsorbed(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	resettled := 0
	for trial := 0; trial < 200; trial++ {
		g, _ := tiedPlane(rng, 40, 60, 0.1)
		src, root := NodeID(rng.Intn(40)), NodeID(rng.Intn(40))
		absorbing := func(n NodeID) bool { return n%3 == 0 }
		settles := 0
		counting := func(n NodeID) bool {
			if absorbing(n) {
				settles++
				return true
			}
			return false
		}
		full, directed := g.NewSweep(), g.NewSweep()
		full.Run(src, nil, absorbing)
		directed.RunPruned(src, nil, counting, g.Dijkstra(root, nil).Dist, math.MaxFloat64, Invalid, 0)
		if settles > len(directed.Absorbed()) {
			resettled++
		}
		checkAbsorbed(t, "exhaustive", full, src, full.Reached, absorbing)
		checkAbsorbed(t, "directed", directed, src, full.Reached, absorbing)
		full.Release()
		directed.Release()
	}
	if resettled == 0 {
		t.Fatal("no directed run settled an absorbing node twice")
	}
	t.Logf("%d of 200 directed runs settled an absorbing node again", resettled)
}

// TestSweepAbsorbedAfterGrowth runs one sweep three times on a small graph,
// leaving its absorbing nodes stamped with epoch 3, then on a larger graph,
// which grows the arrays and restarts the epochs at 1, then on the small graph
// again without and with absorbing nodes, at epochs 2 and 3: the old stamps
// must not hide any absorbing node from the last run's list.
func TestSweepAbsorbedAfterGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small, large := randomConnectedGraph(rng, 30, 60), randomConnectedGraph(rng, 90, 200)
	absorbing := func(n NodeID) bool { return n%2 == 1 }
	s := &Sweep{g: small}
	for i := 0; i < 3; i++ {
		s.Run(0, nil, absorbing)
	}
	s.g = large
	s.Run(0, nil, nil)
	s.g = small
	s.Run(0, nil, nil)
	s.Run(0, nil, absorbing)
	checkAbsorbed(t, "after growth", s, 0, s.Reached, absorbing)
}

// TestShortestPathEarlyExitMatchesFullTree verifies that the path
// ShortestPath reads off the full tree in the SPF cache is the one the
// reference loop finds when it stops at dst (runReference, an early exit),
// node for node and bit for bit: on Euclidean-ish random graphs, on planes
// where equal-length paths are the rule and the smallest parent ID has to
// decide, on planes whose paths tie but for a rounding, each bare and under a
// node/edge mask. The unmasked tree is asked for first, so a masked one is a
// delta repair of it.
func TestShortestPathEarlyExitMatchesFullTree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tied := 0
	for trial := 0; trial < 30; trial++ {
		var g *Graph
		switch trial % 3 {
		case 0:
			g = randomConnectedGraph(rng, 40, 90)
		case 1:
			g, _ = tiedPlane(rng, 40, 60, 1)
		case 2:
			g, _ = tiedPlane(rng, 40, 60, 0.1)
		}
		src := NodeID(rng.Intn(40))
		var mask *Mask
		if trial%2 == 1 {
			mask = randomSweepMask(rng, g, src)
		}
		g.Dijkstra(src, nil)
		tr := g.Dijkstra(src, mask)
		s := g.NewSweep()
		for v := 0; v < 40; v++ {
			dst := NodeID(v)
			p, d := g.ShortestPath(src, dst, mask)
			var ref Path
			refD := Unreachable
			if s.runReference(src, mask, dst, nil, nil, nil, Unreachable) == dst {
				ref, refD = s.PathTo(dst), s.dist[dst]
			}
			if d != refD || !slices.Equal(p, ref) {
				t.Fatalf("trial %d %d→%d: full tree (%v,%v) vs early exit (%v,%v)",
					trial, src, dst, p, d, ref, refD)
			}
			// A tie the parent ID broke: another neighbour of some node on the
			// path reaches it at the same distance.
			for _, x := range p[min(1, len(p)):] {
				for _, a := range g.Neighbors(x) {
					if a.To != tr.Parent(x) && tr.Reachable(a.To) && !mask.EdgeBlocked(a.To, x) && tr.Dist[a.To]+a.Weight == tr.Dist[x] {
						tied++
					}
				}
			}
		}
		s.Release()
	}
	if tied == 0 {
		t.Fatal("no path had a tie for the parent ID to break")
	}
}

// TestSweepSteadyStateAllocs is the allocation-regression guard from the PR 2
// issue: once warm, a full sweep plus path extraction performs zero heap
// allocations, and so does a delay-bound-pruned sweep plus scoring a node off
// it, and a recorded nearest-of scan into storage that has held one. GC is
// disabled so a collection cannot clear the sweep pool or shrink
// the pooled arrays mid-measurement.
func TestSweepSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	rng := rand.New(rand.NewSource(17))
	g := randomConnectedGraph(rng, 200, 600)
	s := g.NewSweep()
	defer s.Release()

	absorbing := func(n NodeID) bool { return n%17 == 0 && n != 0 }
	buf := make(Path, 0, 256)
	var sink float64

	// Warm everything outside the measurement: scratch arrays, queue
	// capacity, path buffer.
	s.Run(0, nil, absorbing)
	buf = s.AppendPathFrom(buf[:0], NodeID(199))

	allocs := testing.AllocsPerRun(50, func() {
		s.Run(0, nil, absorbing)
		buf = s.AppendPathFrom(buf[:0], NodeID(199))
		sink += s.Dist(NodeID(199))
	})
	if allocs != 0 {
		t.Fatalf("steady-state sweep allocated %.1f times per run, want 0", allocs)
	}

	lower := g.Dijkstra(1, nil).Dist
	budget := 1.3 * s.Dist(NodeID(199))
	allocs = testing.AllocsPerRun(50, func() {
		s.RunPruned(0, nil, absorbing, lower, budget, 1, budget/2)
		buf = s.AppendPathFrom(buf[:0], NodeID(199))
		sink += s.WeightFrom(NodeID(199))
	})
	if allocs != 0 {
		t.Fatalf("steady-state pruned sweep allocated %.1f times per run, want 0", allocs)
	}

	// ScanNearest's body on the sweep held here: going through the pool would
	// measure the pool, which drops sweeps at random under the race detector.
	accept := func(n NodeID) bool { return n == 199 }
	s.run(0, nil, nil, accept, nil, Unreachable, Unreachable, Invalid, 0)
	scan := append(NearestScan(nil), s.scan...)
	allocs = testing.AllocsPerRun(50, func() {
		hit := s.run(0, nil, nil, accept, nil, Unreachable, budget, Invalid, 0) != Invalid
		scan = append(scan[:0], s.scan...)
		if hit || !s.budgetCut(nil) {
			buf = scan.AppendPathFrom(buf[:0], len(scan)-1)
		}
		sink += scan[len(scan)-1].Dist
	})
	if allocs != 0 {
		t.Fatalf("steady-state recorded scan allocated %.1f times per run, want 0", allocs)
	}
	_ = sink
}

// TestSweepFreshAllocs pins what a sweep that is not from the pool pays on its
// first run — what set-ups pay after every GC has emptied the pool: the radix
// queue grows its slab and bucket 0, not one slice per bucket, so the run
// allocates no more than the same run on the generic binary heap does (the
// reference loop: the same scratch arrays, one growing heap). Graphs: a dense
// 100-node domain, a unit-weight lattice whose ties fill bucket 0, and a
// sparse 8 192-node graph.
func TestSweepFreshAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// denseDomainFixture's domain, not viewed: the reference reads its rows
	// through Neighbors, which copies a view's.
	dense, _ := waxmanDomain(rand.New(rand.NewSource(307)), 100, 0.9, 0.6)
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"dense domain", dense},
		{"lattice", megascaleLattice(91, 90)},
		{"sparse", randomConnectedGraph(rand.New(rand.NewSource(5)), 8192, 16384)},
	} {
		g := c.g
		got := testing.AllocsPerRun(5, func() {
			s := &Sweep{g: g}
			s.Run(0, nil, nil)
		})
		// The reference runs on a heap of its own: the queue storage its
		// sweeps' begin reserves is reserved before the count.
		refs := make([]*Sweep, 6) // AllocsPerRun(5, f) calls f six times
		for i := range refs {
			refs[i] = &Sweep{g: g}
			refs[i].queue.Reset()
		}
		want := testing.AllocsPerRun(5, func() {
			refs[0].runReference(0, nil, Invalid, nil, nil, nil, Unreachable)
			refs = refs[1:]
		})
		t.Logf("%s: %v allocations, %v on the binary heap", c.name, got, want)
		if got > want {
			t.Errorf("%s: a fresh sweep allocates %v times, %v on the binary heap", c.name, got, want)
		}
	}
}

// BenchmarkDijkstra measures the full shortest-path-tree computation, rippled
// out into a fresh SPTree, on an evaluation-scale graph.
func BenchmarkDijkstra(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	g := randomConnectedGraph(rng, 200, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.dijkstra(NodeID(i%200), nil)
	}
}

// BenchmarkSweep measures the raw pooled sweep, which builds no SPTree — the
// primitive under candidate enumeration and NearestOf.
func BenchmarkSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	g := randomConnectedGraph(rng, 200, 600)
	s := g.NewSweep()
	defer s.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(NodeID(i%200), nil, nil)
	}
}

// megascaleLattice builds a W×H grid graph with diagonal shortcuts — a cheap
// deterministic stand-in for a megascale topology (unit-ish degree ~5,
// spatially local edges) that costs O(N) to construct, so benchmarks don't
// pay Waxman generation to measure sweep relaxation.
func megascaleLattice(w, h int) *Graph {
	b := New(w * h)
	id := func(x, y int) NodeID { return NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			b.SetPos(id(x, y), Point{X: float64(x), Y: float64(y)})
			if x+1 < w {
				_ = b.AddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < h {
				_ = b.AddEdge(id(x, y), id(x, y+1), 1)
			}
			if x+1 < w && y+1 < h && (x+y)%3 == 0 {
				_ = b.AddEdge(id(x, y), id(x+1, y+1), 1.5)
			}
		}
	}
	return mustFreeze(b)
}

// BenchmarkSweepMaskedMegascale measures the full relaxation sweep over a
// ~10⁵-node graph with a few thousand blocked nodes — the megascale-study hot
// path, one bitset probe per arc.
func BenchmarkSweepMaskedMegascale(b *testing.B) {
	const w, h = 320, 320 // 102,400 nodes
	g := megascaleLattice(w, h)
	s := g.NewSweep()
	defer s.Release()

	// Block a dispersed ~2% of nodes (never the source).
	blocked := make([]NodeID, 0, w*h/50)
	for n := 51; n < w*h; n += 50 {
		blocked = append(blocked, NodeID(n))
	}
	mask := NewMaskWithCapacity(w * h).BlockNodes(blocked...)

	b.Run("bitset", func(b *testing.B) {
		s.Run(0, mask, nil) // warm the arena outside the timer
		want := s.SettledCount()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Run(0, mask, nil)
		}
		b.StopTimer()
		if s.SettledCount() != want {
			b.Fatalf("settled count drifted: %d vs %d", s.SettledCount(), want)
		}
	})
}
