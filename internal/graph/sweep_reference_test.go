package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"smrp/internal/pqueue"
)

// runReference is Sweep.run as it stood before rows were cut at the bound,
// kept verbatim (but for reading rows through Graph.Neighbors and asking the
// mask's own NodeBlocked per arc) as the oracle of TestSweepMatchesReference
// and the sweep fuzzers: rows in whatever order the graph keeps them, one map
// probe per arc whenever the mask blocks any edge at all, no endpoint index,
// no nearest bound — every arc of every settled row is relaxed — and its own
// generic binary heap in place of the sweep's radix queue.
func (s *Sweep) runReference(src NodeID, mask *Mask, target NodeID, absorbing func(NodeID) bool, accept func(NodeID) bool, lower []float64, budget float64) NodeID {
	var heap pqueue.Heap[heapItem]
	s.begin()
	g := s.g
	if !g.valid(src) || mask.NodeBlocked(src) {
		return Invalid
	}
	checkEdges := mask.hasEdgeBlocks()
	prune := budget < Unreachable
	if accept != nil && len(s.pos) < s.n {
		s.pos = make([]int32, s.n)
	}

	s.seen[src] = s.epoch
	s.dist[src] = 0
	s.parent[src] = Invalid
	heap.Push(heapItem{node: src, dist: 0})

	for {
		item, ok := heap.Pop()
		if !ok {
			return Invalid
		}
		u := item.node
		if s.settled[u] == s.epoch || item.dist > s.dist[u] {
			continue // stale heap entry (superseded by a better relaxation)
		}
		s.settled[u] = s.epoch
		s.settledCount++
		if accept != nil {
			// u's parent settled before u, so its pos is of this run.
			par := int32(-1)
			if p := s.parent[u]; p != Invalid {
				par = s.pos[p]
			}
			s.pos[u] = int32(len(s.scan))
			s.scan = append(s.scan, ScanNode{Node: u, Parent: par, Dist: s.dist[u]})
			if accept(u) {
				return u
			}
		}
		if u == target {
			return u
		}
		if absorbing != nil && u != src && absorbing(u) {
			continue // settled as an endpoint; never relax through
		}
		du := s.dist[u]
		for _, a := range g.Neighbors(u) {
			v := a.To
			if s.settled[v] == s.epoch {
				continue
			}
			if mask.NodeBlocked(v) {
				continue
			}
			if checkEdges && mask.edges[MakeEdgeID(u, v)] {
				continue
			}
			nd := du + a.Weight
			// Deterministic tie-breaking on parent ID keeps shortest-path
			// trees stable when multiple equal-length paths exist.
			if s.seen[v] == s.epoch && !(nd < s.dist[v] || (nd == s.dist[v] && u < s.parent[v])) {
				continue
			}
			if prune { // after the test above: only improvements pay for it
				reach := nd
				if lower != nil {
					reach += lower[v]
				}
				if reach > budget {
					continue
				}
			}
			s.seen[v] = s.epoch
			s.dist[v] = nd
			s.parent[v] = u
			s.pw[v] = a.Weight
			heap.Push(heapItem{node: v, dist: nd})
		}
	}
}

// rowsRelaxed lists the nodes the last run relaxed outward from: every
// settled node but the absorbed ones and the one the run stopped at.
func (s *Sweep) rowsRelaxed(src, stop NodeID, absorbing func(NodeID) bool) []NodeID {
	var rows []NodeID
	for v := NodeID(0); int(v) < s.n; v++ {
		if s.settled[v] != s.epoch || v == stop {
			continue
		}
		if absorbing != nil && v != src && absorbing(v) {
			continue
		}
		rows = append(rows, v)
	}
	return rows
}

// referenceArcs is what the reference loop scanned in its last run: every arc
// of every row it relaxed.
func (s *Sweep) referenceArcs(src, stop NodeID, absorbing func(NodeID) bool) int {
	arcs := 0
	for _, u := range s.rowsRelaxed(src, stop, absorbing) {
		arcs += s.g.Degree(u)
	}
	return arcs
}

// insertionLog records, row by row, the arcs AddEdge appended in the order it
// appended them: what each frozen row must hold, sorted.
type insertionLog [][]Arc

// addEdge adds the edge (u, v) to b and logs its two arcs if AddEdge took it.
func (l insertionLog) addEdge(b *Builder, u, v NodeID, w float64) {
	if b.AddEdge(u, v, w) == nil {
		l[u] = append(l[u], Arc{To: v, Weight: w})
		l[v] = append(l[v], Arc{To: u, Weight: w})
	}
}

// waxmanDomain generates one dense recovery domain as the megascale topology
// does: n points in the unit square, each pair linked with probability
// α·exp(−d/(β·L)), weights Euclidean. (internal/topology imports this
// package, so the generator cannot be borrowed.) α = 0.9, β = 0.6 gives an
// average degree of 47 at n = 100. It returns the graph and its insertion log.
func waxmanDomain(rng *rand.Rand, n int, alpha, beta float64) (*Graph, insertionLog) {
	b, log := waxmanBuild(rng, n, alpha, beta)
	return b.Freeze(), log
}

// waxmanBuild is waxmanDomain up to, not including, Freeze.
func waxmanBuild(rng *rand.Rand, n int, alpha, beta float64) (*Builder, insertionLog) {
	b, log := New(n), make(insertionLog, n)
	for i := 0; i < n; i++ {
		b.SetPos(NodeID(i), Point{X: rng.Float64(), Y: rng.Float64()})
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			d := b.Pos(NodeID(u)).Dist(b.Pos(NodeID(v)))
			if v == u+1 || rng.Float64() < alpha*math.Exp(-d/(beta*math.Sqrt2)) { // the chain keeps it connected
				log.addEdge(b, NodeID(u), NodeID(v), d)
			}
		}
	}
	return b, log
}

// tiedPlane generates a sparse connected plane with weights 1…4 times unit:
// equal-weight arcs within a row, equal-length paths and nodes tied at a bound
// are the rule on it, where Euclidean weights never produce one. With unit =
// 0.1 the ties are there but for a rounding — (0.1+0.2)+0.3 ≠ 0.1+(0.2+0.3) —
// which is what has a goal-directed queue lower a node it has settled. It
// returns the graph and its insertion log.
func tiedPlane(rng *rand.Rand, n, extra int, unit float64) (*Graph, insertionLog) {
	b, log := New(n), make(insertionLog, n)
	for i := 1; i < n; i++ {
		log.addEdge(b, NodeID(i), NodeID(rng.Intn(i)), unit*float64(1+rng.Intn(4)))
	}
	for i := 0; i < extra; i++ {
		if u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); u != v && !b.HasEdge(u, v) {
			log.addEdge(b, u, v, unit*float64(1+rng.Intn(4)))
		}
	}
	return b.Freeze(), log
}

// checkRowOrder asserts the one row order g holds: each row strictly
// increasing in (weight, neighbour) and holding the arcs of its logged row. It
// reports how many rows hold two arcs of equal weight.
func checkRowOrder(t *testing.T, g *Graph, log insertionLog) (tiedRows int) {
	t.Helper()
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		row, want := g.Neighbors(u), log[u]
		tied := false
		for i := 1; i < len(row); i++ {
			a, b := row[i-1], row[i]
			if a.Weight > b.Weight || (a.Weight == b.Weight && a.To >= b.To) {
				t.Fatalf("frozen row %d holds %+v before %+v", u, a, b)
			}
			tied = tied || a.Weight == b.Weight
		}
		if tied {
			tiedRows++
		}
		byNode := func(a, b Arc) int { return int(a.To - b.To) }
		got, want := slices.Clone(row), slices.Clone(want)
		slices.SortFunc(got, byNode)
		slices.SortFunc(want, byNode)
		if !slices.Equal(got, want) {
			t.Fatalf("frozen row %d holds %v, inserted as %v", u, row, log[u])
		}
	}
	return tiedRows
}

// randomSweepMask draws one of the mask shapes the sweep has to read
// identically: nil, nodes only (grown or pre-sized, a few or more than a
// word's worth), edges, two blocked edges sharing an endpoint with one
// unblocked again, a clone, a union. src is spared.
func randomSweepMask(rng *rand.Rand, g *Graph, src NodeID) *Mask {
	n := g.NumNodes()
	edges := g.Edges()
	m := NewMask()
	if rng.Intn(3) == 0 {
		m = NewMaskWithCapacity(n)
	}
	blockNodes := func(m *Mask, k int) {
		for i := 0; i < k; i++ {
			if v := NodeID(rng.Intn(n)); v != src {
				m.BlockNode(v)
			}
		}
	}
	blockEdges := func(m *Mask, k int) {
		for i := 0; i < k; i++ {
			e := edges[rng.Intn(len(edges))]
			m.BlockEdge(e.A, e.B)
		}
	}
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		blockNodes(m, 1+rng.Intn(5))
	case 2:
		blockEdges(m, 1+rng.Intn(4))
	case 3: // two cut links at one node, one repaired: the node still touches a blocked edge
		u := NodeID(rng.Intn(n))
		if as := g.Neighbors(u); len(as) >= 2 {
			i := rng.Intn(len(as))
			j := (i + 1 + rng.Intn(len(as)-1)) % len(as)
			m.BlockEdge(u, as[i].To).BlockEdge(as[j].To, u).UnblockEdge(as[i].To, u)
		}
	case 4:
		blockNodes(m, 1+rng.Intn(3))
		blockEdges(m, 1+rng.Intn(3))
		m = m.Clone()
	case 5:
		other := NewMask()
		blockEdges(other, 1+rng.Intn(3))
		blockNodes(other, rng.Intn(3))
		blockEdges(m, rng.Intn(3))
		m = m.Union(other)
	case 6: // more than one bitset word's worth of nodes
		blockNodes(m, 74)
		blockEdges(m, 2)
	case 7: // every link of one node cut: the node is unreachable, by edges alone
		u := NodeID(rng.Intn(n))
		for _, a := range g.Neighbors(u) {
			m.BlockEdge(u, a.To)
		}
	}
	return m
}

// sweepCoverage counts what TestSweepMatchesReference has to have seen for
// its comparison to mean anything.
type sweepCoverage struct {
	runs, rowsCutShort, boundTightened, tiesAtBound, equalWeightRows, blockedEdgeRows int
	// Of the goal-directed runs: goals stopped at, of those the ones that
	// settled less than the exhaustive run and the ones whose level held more
	// than the goal; goals reached and declined; nodes queued again after
	// settling and settled nodes that took a smaller parent.
	goalHits, goalSaved, goalDrained, goalDeclined, requeued, reparented int
}

// TestSweepMatchesReference holds the arc loop — rows cut at the bound where
// Freeze has sorted them by weight, the endpoint-indexed edge test, the
// nearest bound — to the loop it replaced, on dense domains and on sparse
// planes full of ties, under every shape of mask, in every mode: distances,
// parents, parent-arc weights and the settled set of a sweep; the record, the
// node returned, hit and exhausted of a nearest-of scan; SettledCount of both.
// The work counter may only fall. Every class of input a cut row meets is
// reached.
func TestSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1717))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	var cov sweepCoverage
	for trial := 0; trial < trials; trial++ {
		var g *Graph
		var log insertionLog
		switch {
		case trial%2 == 0:
			g, log = waxmanDomain(rng, 100, 0.9, 0.6)
		case trial%3 == 0:
			g, log = tiedPlane(rng, 40+rng.Intn(40), 60, 0.1)
		default:
			g, log = tiedPlane(rng, 40+rng.Intn(40), 60, 1)
		}
		cov.equalWeightRows += checkRowOrder(t, g, log)
		for rep := 0; rep < 12; rep++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			mask := randomSweepMask(rng, g, src)
			compareSweeps(t, rng, g, src, mask, &cov)
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.rowsCutShort == 0 || cov.boundTightened == 0 || cov.tiesAtBound == 0 || cov.equalWeightRows == 0 || cov.blockedEdgeRows == 0 ||
		cov.goalHits == 0 || cov.goalSaved == 0 || cov.goalDrained == 0 || cov.goalDeclined == 0 || cov.requeued == 0 || cov.reparented == 0 {
		t.Fatalf("a class of input was never exercised: %+v", cov)
	}
}

// compareSweeps runs one (graph, source, mask) through every mode of the arc
// loop and of its reference.
func compareSweeps(t *testing.T, rng *rand.Rand, g *Graph, src NodeID, mask *Mask, cov *sweepCoverage) {
	t.Helper()
	n := g.NumNodes()
	set := make([]bool, n)
	for i := 0; i < 1+rng.Intn(6); i++ {
		set[rng.Intn(n)] = true
	}
	inSet := func(v NodeID) bool { return set[v] }
	lower := g.dijkstra(NodeID(rng.Intn(n)), nil).Dist
	full := g.dijkstra(src, mask)
	far := 0.0
	for _, d := range full.Dist {
		if d != Unreachable && d > far {
			far = d
		}
	}
	budget := far * (0.2 + 0.6*rng.Float64())

	a, b := g.NewSweep(), g.NewSweep()
	defer a.Release()
	defer b.Release()

	type mode struct {
		name      string
		goal      NodeID
		within    float64
		absorbing func(NodeID) bool
		accept    func(NodeID) bool
		lower     []float64
		budget    float64
	}
	// A goal is stopped at when it weighs at most within: always, or on the
	// toss of a coin — over its weight it is declined and the run has to be the
	// exhaustive one.
	goal := NodeID(rng.Intn(n))
	within := Unreachable
	if full.Dist[goal] != Unreachable && rng.Intn(2) == 0 {
		within = full.Dist[goal] * (0.5 + float64(rng.Intn(2)))
	}
	modes := []mode{
		{"plain", Invalid, 0, nil, nil, nil, Unreachable},
		{"goal", goal, Unreachable, nil, nil, nil, Unreachable},
		{"goal absorbing", goal, within, inSet, nil, nil, Unreachable},
		{"absorbing", Invalid, 0, inSet, nil, nil, Unreachable},
		{"pruned radius", Invalid, 0, inSet, nil, nil, budget},
		{"pruned ellipse", Invalid, 0, inSet, nil, lower, budget + lower[src]},
		{"goal radius", goal, within, inSet, nil, nil, budget},
		{"goal ellipse", goal, within, inSet, nil, lower, budget + lower[src]},
		{"nearest", Invalid, 0, nil, inSet, nil, Unreachable},
		{"nearest budget", Invalid, 0, nil, inSet, nil, budget},
		{"nearest none", Invalid, 0, nil, func(NodeID) bool { return false }, nil, budget},
		// No exported call combines these two, but the loop takes both: the
		// bound may tighten only on a relaxation the ellipse lets through.
		{"nearest ellipse", Invalid, 0, nil, inSet, lower, budget + lower[src]},
	}
	for _, m := range modes {
		// The reference knows no goal: it runs on, and says what is final.
		want := b.runReference(src, mask, Invalid, m.absorbing, m.accept, m.lower, m.budget)
		got := a.run(src, mask, m.absorbing, m.accept, m.lower, Unreachable, m.budget, m.goal, m.within)
		cov.runs++
		what := func() string { return fmt.Sprintf("%s from %d", m.name, src) }
		// Under a potential the queue is label-correcting, and a node settled
		// again is counted again.
		directed := m.lower != nil && m.accept == nil
		if !directed && a.requeued+a.reparented != 0 {
			t.Fatalf("%s: %d nodes queued again, %d settled ones re-parented, in distance order", what(), a.requeued, a.reparented)
		}
		cov.requeued += a.requeued
		cov.reparented += a.reparented
		if m.goal != Invalid {
			// level is what the goal's key bounds: everything at or below it
			// reads as in the exhaustive run, and so does everything when the
			// run found no goal to stop at, or one over its weight.
			level := Unreachable
			if hit := b.Reached(m.goal) && b.WeightFrom(m.goal) <= m.within; hit != (got == m.goal) || (!hit && got != Invalid) {
				t.Fatalf("%s: goal %d within %v: stopped at %d, reference reaches it: %v, weighing %v", what(), m.goal, m.within, got, b.Reached(m.goal), b.WeightFrom(m.goal))
			} else if hit {
				level = b.dist[m.goal]
				if directed {
					level += m.lower[m.goal]
				}
				cov.goalHits++
				if a.settledCount < b.settledCount {
					cov.goalSaved++
				}
				if _, _, drained := a.Relabels(); drained > 0 {
					cov.goalDrained++
				}
			} else if b.Reached(m.goal) {
				cov.goalDeclined++
			}
			for v := NodeID(0); int(v) < n; v++ {
				key := b.dist[v]
				if directed && b.Reached(v) {
					key += m.lower[v]
				}
				if !b.Reached(v) || key > level {
					if level == Unreachable && a.Reached(v) {
						t.Fatalf("%s: node %d reached, not by the reference", what(), v)
					}
					continue
				}
				if !a.Reached(v) || a.settled[v] != a.epoch || a.dist[v] != b.dist[v] || a.parent[v] != b.parent[v] || a.WeightFrom(v) != b.WeightFrom(v) {
					t.Fatalf("%s: goal %d at level %v: node %d (dist, parent, weight) = (%v, %d, %v), reference (%v, %d, %v)", what(), m.goal, level, v,
						a.dist[v], a.parent[v], a.WeightFrom(v), b.dist[v], b.parent[v], b.WeightFrom(v))
				}
			}
			if level == Unreachable && a.settledCount-a.requeued != b.settledCount {
				t.Fatalf("%s: %d settled (%d of them again), reference %d", what(), a.settledCount, a.requeued, b.settledCount)
			}
			continue
		}
		if got != want || a.settledCount-a.requeued != b.settledCount {
			t.Fatalf("%s: stopped at %d after %d settled (%d of them again), reference at %d after %d", what(), got, a.settledCount, a.requeued, want, b.settledCount)
		}
		refArcs := b.referenceArcs(src, want, m.absorbing)
		if !directed {
			if a.arcsScanned > refArcs {
				t.Fatalf("%s: %d arcs scanned, reference %d", what(), a.arcsScanned, refArcs)
			}
			if a.arcsScanned < refArcs {
				cov.rowsCutShort++
			}
		}
		for _, u := range b.rowsRelaxed(src, want, m.absorbing) {
			if mask != nil && mask.touchesBlockedEdge(u) {
				cov.blockedEdgeRows++
			}
		}
		if m.accept != nil {
			// What a nearest-of run leaves behind is its record; past the
			// bound the two loops have, on purpose, not seen the same nodes.
			if !slices.Equal(a.scan, b.scan) {
				t.Fatalf("%s: record\n  %v\nreference\n  %v", what(), a.scan, b.scan)
			}
			hit := got != Invalid
			if ex, exRef := !hit && !(m.budget < Unreachable && a.budgetCut(mask)), !hit && !(m.budget < Unreachable && b.budgetCut(mask)); ex != exRef {
				t.Fatalf("%s: exhausted=%v, reference %v", what(), ex, exRef)
			}
			if hit && m.budget == Unreachable && a.arcsScanned < refArcs {
				cov.boundTightened++ // nothing else cuts a row of an unbudgeted scan
			}
			if k := len(a.scan); hit && k >= 2 && a.scan[k-2].Dist == a.scan[k-1].Dist {
				cov.tiesAtBound++
			}
			continue
		}
		for v := NodeID(0); int(v) < n; v++ {
			if a.Reached(v) != b.Reached(v) || (a.settled[v] == a.epoch) != (b.settled[v] == b.epoch) {
				t.Fatalf("%s: node %d reached=%v settled=%v, reference %v %v", what(), v,
					a.Reached(v), a.settled[v] == a.epoch, b.Reached(v), b.settled[v] == b.epoch)
			}
			if a.Reached(v) && (a.dist[v] != b.dist[v] || a.parent[v] != b.parent[v] || (a.parent[v] != Invalid && a.pw[v] != b.pw[v])) {
				t.Fatalf("%s: node %d (dist, parent, arc) = (%v, %d, %v), reference (%v, %d, %v)", what(), v,
					a.dist[v], a.parent[v], a.pw[v], b.dist[v], b.parent[v], b.pw[v])
			}
		}
	}
}

// denseDomainFixture is the regime the hierarchy's domain sessions run in: a
// 100-node α = 0.9 domain, viewed inside a larger graph as a domain session
// sees it, and a multicast tree of node 0's shortest paths to a dozen
// members.
func denseDomainFixture(tb testing.TB) (g *Graph, spt *SPTree, onTree []bool) {
	rng := rand.New(rand.NewSource(307))
	g, _ = waxmanDomain(rng, 100, 0.9, 0.6)
	g = embed(tb, g, 0, rand.New(rand.NewSource(308)))
	spt = g.dijkstra(0, nil)
	onTree = make([]bool, g.NumNodes())
	onTree[0] = true
	for i := 0; i < 12; i++ {
		for v := NodeID(1 + rng.Intn(99)); v != Invalid; v = spt.Parent[v] {
			onTree[v] = true
		}
	}
	return g, spt, onTree
}

// TestDenseDomainArcWork gates the work counter where the end-to-end gain
// comes from. A member that lost its uplink finds the tree again having
// scanned at most a quarter of the arcs the reference loop scans, with the
// same record (so the same SettledCount); a join whose candidate sweep is
// confined by the source's distances scans at most half of what the same
// sweep scans on the delay budget's radius alone, which is all a domain
// session without an SPF cache had.
func TestDenseDomainArcWork(t *testing.T) {
	g, spt, onTree := denseDomainFixture(t)
	a, b := g.NewSweep(), g.NewSweep()
	defer a.Release()
	defer b.Release()

	var scanArcs, scanRef, joinArcs, joinRef int
	for v := NodeID(1); int(v) < g.NumNodes(); v++ {
		if onTree[v] && spt.Parent[v] != Invalid {
			// v's uplink is cut: everything below it is gone with it, the
			// rest of the tree is what it may re-attach to.
			below := func(x NodeID) bool {
				for ; x != Invalid; x = spt.Parent[x] {
					if x == v {
						return true
					}
				}
				return false
			}
			mask := NewMask().BlockEdge(v, spt.Parent[v])
			accept := func(x NodeID) bool { return onTree[x] && !below(x) }
			want := b.runReference(v, mask, Invalid, nil, accept, nil, Unreachable)
			got := a.run(v, mask, nil, accept, nil, Unreachable, Unreachable, Invalid, 0)
			if got != want || !slices.Equal(a.scan, b.scan) || a.SettledCount() != b.SettledCount() {
				t.Fatalf("scan from %d: (%d, %d settled), reference (%d, %d settled)", v, got, a.SettledCount(), want, b.SettledCount())
			}
			scanArcs += a.arcsScanned
			scanRef += b.referenceArcs(v, want, nil)
			continue
		}
		if onTree[v] {
			continue
		}
		absorbing := func(x NodeID) bool { return onTree[x] }
		budget := 1.3 * spt.Dist[v]
		b.runReference(v, nil, Invalid, absorbing, nil, nil, budget)
		a.RunPruned(v, nil, absorbing, spt.Dist, budget, Invalid, 0)
		joinArcs += a.arcsScanned
		joinRef += b.referenceArcs(v, Invalid, absorbing)
	}
	t.Logf("nearest scans: %d arcs, reference %d; joins: %d arcs, reference %d", scanArcs, scanRef, joinArcs, joinRef)
	if scanRef == 0 || joinRef == 0 {
		t.Fatal("fixture has no scans or no joins")
	}
	if 4*scanArcs > scanRef {
		t.Errorf("nearest scans looked at %d arcs, more than a quarter of the reference's %d", scanArcs, scanRef)
	}
	if 2*joinArcs > joinRef {
		t.Errorf("joins looked at %d arcs, more than half of the reference's %d", joinArcs, joinRef)
	}
}

// BenchmarkScanNearestDenseDomain measures the lone-member restoration scan
// of a dense domain: each on-tree node in turn loses its uplink and looks for
// the nearest node of the tree that is not below it.
func BenchmarkScanNearestDenseDomain(b *testing.B) {
	g, spt, onTree := denseDomainFixture(b)
	var cut []NodeID
	for v := NodeID(1); int(v) < g.NumNodes(); v++ {
		if onTree[v] {
			cut = append(cut, v)
		}
	}
	var v NodeID
	accept := func(x NodeID) bool {
		if !onTree[x] {
			return false
		}
		for ; x != Invalid; x = spt.Parent[x] {
			if x == v {
				return false
			}
		}
		return true
	}
	mask := NewMask()
	var rec NearestScan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = cut[i%len(cut)]
		mask.BlockEdge(v, spt.Parent[v])
		rec, _, _ = g.ScanNearest(rec, v, mask, accept, Unreachable)
		mask.UnblockEdge(v, spt.Parent[v])
	}
}
