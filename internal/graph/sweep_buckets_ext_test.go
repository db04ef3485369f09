package graph_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"smrp/internal/graph"
	"smrp/internal/topology"
)

// TestPrunedSweepMatchesRadix holds RunPruned's bucketed pass to the radix
// queue's run of the same directed sweep (graph.QueuesAgree): the same node
// returned, SettledCount and Absorbed, and the same final labels, bit for
// bit. Inputs: dense Waxman domains and sparse planes tied exactly or to a
// rounding, under every mask shape, with potentials of unmasked and of masked
// distances and random absorbing sets; a view; joins on the FlatMegascale(8192)
// plane, their tree absorbing; and graphs the pass rules itself out of. Each
// runs with no goal, a goal stopped at, and a goal declined for weighing more
// than allowed. Under the race detector every fourth case runs.
func TestPrunedSweepMatchesRadix(t *testing.T) {
	step := 1
	if graph.RaceEnabled {
		step = 4
	}
	var cov struct{ runs, bucketed, fallback, hits, declined, requeued, reparented, view, flat int }
	cases := 0
	// check runs one input with no goal, then toward goal stopped at and
	// declined, goal drawn by the caller.
	check := func(g *graph.Graph, src graph.NodeID, mask *graph.Mask, absorbing func(graph.NodeID) bool, lower []float64, budget float64, goal graph.NodeID) {
		t.Helper()
		if cases++; cases%step != 0 {
			return
		}
		s := g.NewSweep()
		s.RunPruned(src, mask, absorbing, lower, budget, graph.Invalid, 0)
		weight := s.WeightFrom(goal)
		s.Release()
		for _, q := range []struct {
			goal   graph.NodeID
			within float64
		}{{graph.Invalid, 0}, {goal, graph.Unreachable}, {goal, weight / 2}} {
			c := graph.QueuesAgree(t, g, src, mask, absorbing, lower, budget, q.goal, q.within)
			cov.runs++
			if c.Bucketed {
				cov.bucketed++
			} else {
				cov.fallback++
			}
			if c.Hit {
				cov.hits++
			}
			if c.Declined {
				cov.declined++
			}
			cov.requeued += c.Requeued
			cov.reparented += c.Reparented
		}
	}
	randomSet := func(rng *rand.Rand, n int) func(graph.NodeID) bool {
		if rng.Intn(4) == 0 {
			return nil
		}
		set := make([]bool, n)
		for range 1 + rng.Intn(n/4) {
			set[rng.Intn(n)] = true
		}
		return func(v graph.NodeID) bool { return set[v] }
	}
	// far is the greatest finite distance of d.
	far := func(d []float64) float64 {
		m := 0.0
		for _, x := range d {
			if x != graph.Unreachable {
				m = max(m, x)
			}
		}
		return m
	}

	rng := rand.New(rand.NewSource(54))
	for trial := range 36 {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g, _ = graph.WaxmanDomain(rng, 100, 0.9, 0.6)
		case 1:
			g, _ = graph.TiedPlane(rng, 40+rng.Intn(40), 60, 1)
		default:
			g, _ = graph.TiedPlane(rng, 40+rng.Intn(40), 60, 0.1)
		}
		if !g.Bucketed() {
			t.Fatalf("trial %d: the graph has no bucket width", trial)
		}
		n := g.NumNodes()
		for range 8 {
			src := graph.NodeID(rng.Intn(n))
			mask := graph.RandomSweepMask(rng, g, src)
			root := graph.NodeID(rng.Intn(n))
			lower := g.Dijkstra(root, nil).Dist
			if rng.Intn(3) == 0 {
				lower = g.Dijkstra(root, mask).Dist // may leave src without a finite bound
			}
			budget := lower[src] + far(g.Dijkstra(src, mask).Dist)*(0.2+rng.Float64())
			check(g, src, mask, randomSet(rng, n), lower, budget, graph.NodeID(rng.Intn(n)))
		}
	}

	// A view keeps its graph's step; its rows are partly its graph's own.
	g, _ := graph.WaxmanDomain(rng, 100, 0.9, 0.6)
	view, _, err := g.View(10, 60, []graph.NodeID{3, 85})
	if err != nil {
		t.Fatal(err)
	}
	for range 24 {
		n := view.NumNodes()
		src, root := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		lower := view.Dijkstra(root, nil).Dist
		before := cov.runs
		check(view, src, graph.RandomSweepMask(rng, view, src), randomSet(rng, n), lower, lower[src]+far(lower)*rng.Float64(), graph.NodeID(rng.Intn(n)))
		cov.view += cov.runs - before
	}

	// Joins on the megascale plane: a tree of node 0's shortest paths to 32
	// members absorbs, node 0 is the goal, the budget the ellipse a delay
	// bound of 1.2–2 times the joiner's own distance draws.
	flat, _, err := topology.FlatMegascale(8192, 2005)
	if err != nil {
		t.Fatal(err)
	}
	spt := flat.Dijkstra(0, nil)
	onTree := make([]bool, flat.NumNodes())
	onTree[0] = true
	for range 32 {
		for v := graph.NodeID(1 + rng.Intn(flat.NumNodes()-1)); v != graph.Invalid && !onTree[v]; v = spt.Parent(v) {
			onTree[v] = true
		}
	}
	for range 16 {
		j := graph.NodeID(1 + rng.Intn(flat.NumNodes()-1))
		if onTree[j] || !spt.Reachable(j) {
			continue
		}
		var mask *graph.Mask
		if rng.Intn(2) == 0 {
			mask = graph.NewMask()
			for range 40 {
				if v := graph.NodeID(rng.Intn(flat.NumNodes())); v != j && v != 0 {
					mask.BlockNode(v)
				}
			}
		}
		before := cov.runs
		check(flat, j, mask, func(v graph.NodeID) bool { return onTree[v] }, spt.Dist, spt.Dist[j]*(1.2+0.8*rng.Float64()), 0)
		cov.flat += cov.runs - before
	}

	// Where the pass rules itself out the sweep is the queue's: weights
	// spread past what a bucket width can serve, a source beyond the budget,
	// a source with no finite bound.
	b := graph.New(6)
	for i, w := range []float64{1, 2, 1e-16, 1, 3} {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), w); err != nil {
			t.Fatal(err)
		}
	}
	spread, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if spread.Bucketed() {
		t.Fatal("a graph with weights 1e-16 to 3 has a bucket width")
	}
	check(spread, 0, nil, nil, spread.Dijkstra(5, nil).Dist, 10, 5)
	plane, _ := graph.TiedPlane(rng, 50, 60, 1)
	lower := plane.Dijkstra(0, nil).Dist
	check(plane, 7, nil, nil, lower, lower[7]/2, 0)
	cut := graph.NewMask().BlockNode(0)
	for _, a := range plane.Neighbors(7) {
		cut.BlockNode(a.To)
	}
	check(plane, 7, nil, nil, plane.Dijkstra(0, cut).Dist, 1e6, 0)

	t.Logf("coverage: %+v", cov)
	if cov.bucketed == 0 || cov.fallback == 0 || cov.hits == 0 || cov.declined == 0 || cov.requeued == 0 || cov.reparented == 0 || cov.view == 0 || cov.flat == 0 {
		t.Fatalf("a class of input was never exercised: %+v", cov)
	}
}

// TestSweepEpochWrap has a sweep's epoch wrap on a directed, absorbing run
// toward a goal, which makes begin clear its stamp arrays (seen, settled and
// listed; the bucketed pass adds none): the run reads exactly as the same run
// of another sweep, although the sweep's previous run, at epoch 1, left every
// stamp at the value the wrapped epoch starts from again.
func TestSweepEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, _ := graph.TiedPlane(rng, 60, 90, 0.1)
	n := g.NumNodes()
	lower := g.Dijkstra(0, nil).Dist
	absorbing := func(v graph.NodeID) bool { return v%4 == 1 }
	src := graph.NodeID(n - 1)
	budget := lower[src] * 3

	s, fresh := g.NewSweep(), g.NewSweep()
	defer s.Release()
	defer fresh.Release()
	s.SetEpoch(0)
	s.RunPruned(1, nil, absorbing, lower, math.MaxFloat64, graph.Invalid, 0) // stamps everything 1
	s.SetEpoch(math.MaxUint32)
	got := s.RunPruned(src, nil, absorbing, lower, budget, 0, graph.Unreachable)
	want := fresh.RunPruned(src, nil, absorbing, lower, budget, 0, graph.Unreachable)
	if !want {
		t.Fatal("the run does not reach its goal")
	}
	if got != want || s.SettledCount() != fresh.SettledCount() || !slices.Equal(s.Absorbed(), fresh.Absorbed()) {
		t.Fatalf("after the wrap: stopped=%v settling %d, absorbed %v; a fresh sweep %v settling %d, absorbed %v",
			got, s.SettledCount(), s.Absorbed(), want, fresh.SettledCount(), fresh.Absorbed())
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		if s.Reached(v) != fresh.Reached(v) || s.Dist(v) != fresh.Dist(v) || s.Parent(v) != fresh.Parent(v) {
			t.Fatalf("after the wrap node %d reads (%v, %v, %d), on a fresh sweep (%v, %v, %d)",
				v, s.Reached(v), s.Dist(v), s.Parent(v), fresh.Reached(v), fresh.Dist(v), fresh.Parent(v))
		}
	}
}

// TestSweepAfterPanickedPass has an absorbing predicate panic in the middle of
// a bucketed pass, with nodes still in its buckets, and runs the sweep again
// from another source, to exhaustion and toward a goal: each run reads
// exactly as the same run of another sweep.
func TestSweepAfterPanickedPass(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, _ := graph.TiedPlane(rng, 60, 90, 1)
	lower := g.Dijkstra(0, nil).Dist
	absorbing := func(v graph.NodeID) bool { return v%5 == 2 }
	calls := 0
	panicking := func(v graph.NodeID) bool {
		if calls++; calls == 12 {
			panic("absorbing")
		}
		return absorbing(v)
	}
	s, fresh := g.NewSweep(), g.NewSweep()
	defer s.Release()
	defer fresh.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the pass ran out before the predicate panicked")
			}
		}()
		s.RunPruned(30, nil, panicking, lower, math.MaxFloat64, graph.Invalid, 0)
	}()
	for _, goal := range []graph.NodeID{graph.Invalid, 0} {
		got := s.RunPruned(59, nil, absorbing, lower, lower[59]*2, goal, graph.Unreachable)
		want := fresh.RunPruned(59, nil, absorbing, lower, lower[59]*2, goal, graph.Unreachable)
		if got != want || s.SettledCount() != fresh.SettledCount() || !slices.Equal(s.Absorbed(), fresh.Absorbed()) {
			t.Fatalf("after the panic, goal %d: stopped=%v settling %d; a fresh sweep %v settling %d", goal, got, s.SettledCount(), want, fresh.SettledCount())
		}
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if s.Reached(v) != fresh.Reached(v) || s.Dist(v) != fresh.Dist(v) || s.Parent(v) != fresh.Parent(v) {
				t.Fatalf("after the panic, goal %d: node %d reads (%v, %v, %d), on a fresh sweep (%v, %v, %d)",
					goal, v, s.Reached(v), s.Dist(v), s.Parent(v), fresh.Reached(v), fresh.Dist(v), fresh.Parent(v))
			}
		}
	}
}
