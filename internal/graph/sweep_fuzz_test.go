package graph

import (
	"slices"
	"testing"
)

// sweepInput is what the sweep fuzz targets decode their bytes into: a small
// graph with weights in 1…8, a node/edge mask that spares src, a node set
// (absorbing for one target, accepted for the other), an integer budget, and
// the root and kind of FuzzSweepPruned's lower bound. Integer weights and
// budget make every sum exact, so a region's edge is not blurred by rounding.
// What the edge triples leave over names FuzzSweepPruned's goal and how it
// runs toward it.
type sweepInput struct {
	g         *Graph
	mask      *Mask
	src, root NodeID
	lowerKind int // 0: none, 1: unmasked distances, 2: masked distances
	budget    float64
	set       func(NodeID) bool
	goal      NodeID
	goalKind  int
}

func decodeSweepInput(data []byte) sweepInput {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 2 + next()%30
	in := sweepInput{src: NodeID(next() % n), root: NodeID(next() % n), lowerKind: next() % 3, budget: float64(next() % 64)}
	maskBits := next() | next()<<8
	setBits := next() | next()<<8
	nodeBlocks, edgeBlocks := next()%4, next()%4

	b := New(n)
	var edges []EdgeID
	seen := map[EdgeID]bool{}
	for len(data) >= 3 {
		u, v, w := NodeID(next()%n), NodeID(next()%n), float64(1+next()%8)
		if e := MakeEdgeID(u, v); u != v && !seen[e] && b.AddEdge(u, v, w) == nil {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	in.g = mustFreeze(b)
	in.goal, in.goalKind = NodeID(next()%n), next()
	if nodeBlocks+edgeBlocks > 0 {
		in.mask = NewMask()
		for i := 0; i < nodeBlocks; i++ {
			if v := NodeID((maskBits >> (4 * i)) % n); v != in.src {
				in.mask.BlockNode(v)
			}
		}
		for i := 0; i < edgeBlocks && len(edges) > 0; i++ {
			e := edges[(maskBits>>(3*i))%len(edges)]
			in.mask.BlockEdge(e.A, e.B)
		}
	}
	in.set = func(v NodeID) bool { return setBits>>(uint(v)%16)&1 != 0 }
	return in
}

// FuzzSweepPruned holds RunPruned to its contract against the exhaustive Run
// on byte-decoded inputs: a small graph, a node/edge mask, an absorbing set, a
// source, a budget, and a consistent lower bound — shortest-path distances
// from some node, on the unmasked graph or under the same mask, or none.
// Weights and the budget are small integers, so every sum is exact and the
// region's edge is not blurred by rounding — or, on a bit of goalKind, tenths
// of them: then sums of the same weights differ with the order they are taken
// in, the potential is consistent to a rounding only, the queue has settled
// nodes to lower, and the region is held to its contract a TieSlack inside its
// edge. The exhaustive Run reads, node for node and in its settled count, as
// the reference loop on the generic binary heap does (runReference), so the
// radix queue answers to the heap through whole sweeps. Run to exhaustion:
//
//   - every node the pruned run reaches has the Dist and Parent Run gives it
//     (and WeightFrom is the weight of its materialized path);
//   - every node Run reaches with dist + lower ≤ budget is reached;
//   - Absorbed lists each absorbing node but src that the run reached, once
//     (for the exhaustive Run, those the reference loop reached), however
//     often a directed run settled it.
//
// Run toward the decoded goal — stopped at whatever it weighs, only at its
// own weight or below, or never below half of it — the sweep stops exactly
// when the exhaustive one reaches the goal at such a weight; then every node
// keyed at or below the goal reads as it does there, and otherwise every node
// does. Both runs read as the radix queue's runs of the same sweep
// (QueuesAgree), whichever of the bucketed pass and the queue RunPruned
// took. Two seeds hold the pass to its bucket boundaries on tenths weights:
// in push-rounds-below-the-bucket-in-drain a key rounds below the bucket in
// drain, which must take the push; in level-in-the-goals-next-bucket the
// goal's level lies in the bucket after the goal's own, which must drain.
func FuzzSweepPruned(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 0, 7, 0, 12, 0, 1, 2, 1, 2, 3, 2, 3, 0, 1, 0, 2, 5, 4, 5, 1, 5, 6, 1, 6, 7, 3, 7, 8, 2, 8, 4, 2})
	f.Add([]byte{20, 3, 19, 1, 30, 2, 0x55, 0xAA, 1, 5, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 5, 1, 5, 6, 1, 6, 7, 1, 7, 8, 1, 8, 9, 1, 9, 10, 1,
		10, 11, 1, 11, 12, 1, 12, 13, 1, 13, 14, 1, 14, 15, 1, 15, 16, 1, 16, 17, 1, 17, 18, 1, 18, 19, 1, 19, 0, 1, 0, 10, 4, 5, 15, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeSweepInput(data)
		g, mask, src, budget, absorbing := in.g, in.mask, in.src, in.budget, in.set
		inside := budget
		if in.goalKind&4 != 0 {
			b := New(in.g.NumNodes())
			for _, e := range in.g.Edges() {
				w, _ := in.g.EdgeWeight(e.A, e.B)
				_ = b.AddEdge(e.A, e.B, w/10)
			}
			g = mustFreeze(b)
			budget /= 10
			inside = budget / (1 + TieSlack)
		}
		var lower []float64
		switch in.lowerKind {
		case 1:
			lower = g.dijkstra(in.root, nil).Dist
		case 2:
			lower = g.dijkstra(in.root, mask).Dist
		}
		key := func(s *Sweep, v NodeID) float64 {
			if lower != nil {
				return s.Dist(v) + lower[v]
			}
			return s.Dist(v)
		}

		full, pruned, ref := g.NewSweep(), g.NewSweep(), g.NewSweep()
		defer full.Release()
		defer pruned.Release()
		defer ref.Release()
		full.Run(src, mask, absorbing)
		ref.runReference(src, mask, Invalid, absorbing, nil, nil, Unreachable)
		if full.SettledCount() != ref.SettledCount() {
			t.Fatalf("exhaustive run settled %d nodes, reference %d", full.SettledCount(), ref.SettledCount())
		}
		for i := 0; i < g.NumNodes(); i++ {
			if v := NodeID(i); full.Reached(v) != ref.Reached(v) || full.Dist(v) != ref.Dist(v) || full.Parent(v) != ref.Parent(v) {
				t.Fatalf("node %d: exhaustive (dist, parent) = (%v, %d), reference (%v, %d)", v, full.Dist(v), full.Parent(v), ref.Dist(v), ref.Parent(v))
			}
		}
		checkAbsorbed(t, "exhaustive", full, src, ref.Reached, absorbing)
		if pruned.RunPruned(src, mask, absorbing, lower, budget, Invalid, 0) {
			t.Fatal("stopped at a goal, given none")
		}
		checkAbsorbed(t, "pruned", pruned, src, pruned.Reached, absorbing)

		if pruned.SettledCount() > full.SettledCount() {
			t.Fatalf("pruned run settled %d nodes, exhaustive %d", pruned.SettledCount(), full.SettledCount())
		}
		for i := 0; i < g.NumNodes(); i++ {
			v := NodeID(i)
			if pruned.Reached(v) {
				if w, err := pruned.AppendPathFrom(nil, v).Weight(g); err != nil || w != pruned.WeightFrom(v) {
					t.Fatalf("node %d: WeightFrom = %v, path weight %v (%v)", v, pruned.WeightFrom(v), w, err)
				}
				if key(pruned, v) > inside {
					continue
				}
				if !full.Reached(v) || pruned.Dist(v) != full.Dist(v) || pruned.Parent(v) != full.Parent(v) {
					t.Fatalf("node %d: pruned (dist, parent) = (%v, %d), exhaustive (%v, %d), reached=%v",
						v, pruned.Dist(v), pruned.Parent(v), full.Dist(v), full.Parent(v), full.Reached(v))
				}
				continue
			}
			if full.Reached(v) && key(full, v) <= inside {
				t.Fatalf("node %d: dist %v + lower = %v within budget %v, not reached", v, full.Dist(v), key(full, v), budget)
			}
		}

		goal, within := in.goal, Unreachable
		switch in.goalKind & 3 {
		case 1:
			within = pruned.WeightFrom(goal)
		case 2:
			within = pruned.WeightFrom(goal) / 2
		}
		toGoal := g.NewSweep()
		defer toGoal.Release()
		hit := toGoal.RunPruned(src, mask, absorbing, lower, budget, goal, within)
		QueuesAgree(t, g, src, mask, absorbing, lower, budget, Invalid, 0)
		QueuesAgree(t, g, src, mask, absorbing, lower, budget, goal, within)
		if want := pruned.Reached(goal) && pruned.WeightFrom(goal) <= within; hit != want {
			t.Fatalf("goal %d within %v: stopped=%v, the exhaustive run reaches it: %v, weighing %v", goal, within, hit, pruned.Reached(goal), pruned.WeightFrom(goal))
		}
		level := Unreachable
		if hit {
			level = key(pruned, goal)
		}
		for i := 0; i < g.NumNodes(); i++ {
			v := NodeID(i)
			if !pruned.Reached(v) || key(pruned, v) > level {
				if !hit && toGoal.Reached(v) {
					t.Fatalf("goal %d declined: node %d reached, not by the exhaustive run", goal, v)
				}
				continue
			}
			if !toGoal.Reached(v) || toGoal.Dist(v) != pruned.Dist(v) || toGoal.Parent(v) != pruned.Parent(v) || toGoal.WeightFrom(v) != pruned.WeightFrom(v) {
				t.Fatalf("goal %d at level %v: node %d (dist, parent, weight) = (%v, %d, %v), exhaustive (%v, %d, %v)", goal, level, v,
					toGoal.Dist(v), toGoal.Parent(v), toGoal.WeightFrom(v), pruned.Dist(v), pruned.Parent(v), pruned.WeightFrom(v))
			}
		}
	})
}

// checkAbsorbed fails t unless s.Absorbed() lists every node but src that
// reached and absorbing both hold, each once.
func checkAbsorbed(t *testing.T, what string, s *Sweep, src NodeID, reached, absorbing func(NodeID) bool) {
	t.Helper()
	var want []NodeID
	for i := 0; i < s.g.NumNodes(); i++ {
		if v := NodeID(i); v != src && reached(v) && absorbing(v) {
			want = append(want, v)
		}
	}
	got := slices.Clone(s.Absorbed())
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s run: absorbed %v, want %v", what, s.Absorbed(), want)
	}
}

// FuzzNearestScanPrefix holds ScanNearest to what reconcile's reconnect loop
// relies on, for a byte-decoded (graph, mask, source, accepted set, budget):
//
//   - the unbounded record is the reference loop's on the generic binary heap
//     (runReference), entry for entry, and reads as the plain sweep does —
//     distances, parents and paths — and NearestOfCounted returns its last
//     node;
//   - the budgeted record is a prefix of it, node for node, and lacks no node
//     within the budget that settles before the accepted one;
//   - the budgeted scan hits exactly when the unbounded hit lies within the
//     budget, and reports exhaustion exactly when the unbounded scan found
//     nothing and the budget hid none of the component.
func FuzzNearestScanPrefix(f *testing.F) {
	f.Add([]byte{})
	// A ring of 20 with two chords; 0x0100 accepts node 8 alone, at distance
	// 9, budget 3.
	f.Add([]byte{18, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 5, 1, 5, 6, 1, 6, 7, 1, 7, 8, 1, 8, 9, 1, 9, 10, 1,
		10, 11, 1, 11, 12, 1, 12, 13, 1, 13, 14, 1, 14, 15, 1, 15, 16, 1, 16, 17, 1, 17, 18, 1, 18, 19, 1, 19, 0, 1, 0, 10, 4, 5, 15, 4})
	// Nothing accepted, a node and an edge masked: exhaustion with and
	// without the budget in the way.
	f.Add([]byte{7, 2, 0, 0, 9, 0x35, 0x01, 0, 0, 1, 1, 0, 1, 2, 1, 2, 3, 2, 3, 8, 3, 4, 1, 4, 5, 1, 5, 6, 7, 6, 7, 1, 7, 8, 2, 8, 0, 1, 2, 6, 8})
	// A far edge relaxed over budget first and reached cheaply later: the
	// budget refuses a relaxation yet hides nothing.
	f.Add([]byte{2, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 3, 7, 0, 1, 0, 1, 2, 0, 2, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeSweepInput(data)
		g, mask, src, accept := in.g, in.mask, in.src, in.set

		full, hitF, exhaustedF := g.ScanNearest(nil, src, mask, accept, Unreachable)
		if exhaustedF == hitF {
			t.Fatalf("unbounded scan: hit=%v exhausted=%v, want exactly one", hitF, exhaustedF)
		}
		ref := g.NewSweep()
		defer ref.Release()
		if got := ref.runReference(src, mask, Invalid, nil, accept, nil, Unreachable); (got != Invalid) != hitF || !slices.Equal(full, ref.scan) {
			t.Fatalf("unbounded scan: hit=%v, record\n  %v\nreference stops at %d, record\n  %v", hitF, full, got, ref.scan)
		}
		tree := g.dijkstra(src, mask)
		for i, sn := range full {
			par := Invalid
			if sn.Parent >= 0 {
				par = full[sn.Parent].Node
			}
			if sn.Dist != tree.Dist[sn.Node] || par != tree.Parent(sn.Node) {
				t.Fatalf("position %d: node %d (dist, parent) = (%v, %d), Dijkstra (%v, %d)",
					i, sn.Node, sn.Dist, par, tree.Dist[sn.Node], tree.Parent(sn.Node))
			}
			if i > 0 && !(heapItem{full[i-1].Node, full[i-1].Dist}).Before(heapItem{sn.Node, sn.Dist}) {
				t.Fatalf("position %d: (%v, %d) settled after (%v, %d)", i, sn.Dist, sn.Node, full[i-1].Dist, full[i-1].Node)
			}
			if accept(sn.Node) != (hitF && i == len(full)-1) {
				t.Fatalf("position %d of %d: node %d accepted=%v, hit=%v", i, len(full), sn.Node, accept(sn.Node), hitF)
			}
			if p, q := full.AppendPathFrom(nil, i), tree.PathTo(sn.Node).Reverse(); !slices.Equal(p, q) {
				t.Fatalf("position %d: path %v, Dijkstra %v", i, p, q)
			}
		}
		node, p, d, settled := g.NearestOfCounted(src, mask, accept)
		if settled != len(full) || (node != Invalid) != hitF {
			t.Fatalf("NearestOfCounted: node %d after %d settled; scan hit=%v after %d", node, settled, hitF, len(full))
		}
		if last := len(full) - 1; hitF && (node != full[last].Node || d != full[last].Dist || !slices.Equal(p.Reverse(), full.AppendPathFrom(nil, last))) {
			t.Fatalf("NearestOfCounted = (%d, %v, %v), scan ends at %+v by %v", node, p, d, full[last], full.AppendPathFrom(nil, last))
		}

		// The record is written over the storage handed in, whatever it held.
		scan, hit, exhausted := g.ScanNearest(append(NearestScan(nil), full...), src, mask, accept, in.budget)
		if len(scan) > len(full) {
			t.Fatalf("budget %v: %d nodes recorded, unbounded %d", in.budget, len(scan), len(full))
		}
		for i := range scan {
			if scan[i] != full[i] {
				t.Fatalf("budget %v, position %d: %+v, unbounded %+v", in.budget, i, scan[i], full[i])
			}
		}
		if len(scan) < len(full) && full[len(scan)].Dist <= in.budget {
			t.Fatalf("budget %v: record stops at %d, before %+v", in.budget, len(scan), full[len(scan)])
		}
		if want := hitF && full[len(full)-1].Dist <= in.budget; hit != want {
			t.Fatalf("budget %v: hit=%v, unbounded hit=%v at %+v", in.budget, hit, hitF, full[len(full)-1])
		}
		if want := !hitF && len(scan) == len(full); exhausted != want {
			t.Fatalf("budget %v: exhausted=%v with %d of %d nodes recorded, unbounded hit=%v", in.budget, exhausted, len(scan), len(full), hitF)
		}
	})
}

// multiSourceReference is the from-scratch field FuzzFieldReseed holds the
// incremental one to: distances from the nearest unblocked seed under mask,
// by the quadratic textbook loop.
func multiSourceReference(g *Graph, mask *Mask, seeds []bool) []float64 {
	dist, done := make([]float64, g.NumNodes()), make([]bool, g.NumNodes())
	for v := range dist {
		dist[v] = Unreachable
		if seeds[v] && !mask.NodeBlocked(NodeID(v)) {
			dist[v] = 0
		}
	}
	for {
		u := -1
		for v := range dist {
			if !done[v] && dist[v] < Unreachable && (u < 0 || dist[v] < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		for _, a := range g.Neighbors(NodeID(u)) {
			if nd := dist[u] + a.Weight; nd < dist[a.To] && !mask.EdgeBlocked(NodeID(u), a.To) {
				dist[a.To] = nd
			}
		}
	}
}

// FuzzFieldReseed holds Field and the sweep it confines to what recovery's
// tree-side engine relies on. The decoded set is seeded node by node, in ring
// order from root, and between seeds the field is advanced — a few pops, or
// out to the budget as a radius, or one pop after re-queueing the node handed
// out last. After every step:
//
//   - no value lies below the from-scratch multi-source distance over the
//     seeds so far, and every node nearer than the horizon holds exactly it
//     (float addition is monotone, so the label-correcting queue and the
//     textbook loop minimise the same sums);
//   - nodes are handed out in (distance, node) order between seeds;
//   - NearestOfCounted from src, accepting the seeds so far, stops where the
//     reference loop on the generic binary heap does (runReference), after as
//     many settled; NearestWithin returns its node, path and distance bits and
//     settles no more.
func FuzzFieldReseed(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeSweepInput(data)
		g, mask, src, n := in.g, in.mask, in.src, in.g.NumNodes()
		fld, sw, ref := g.NewField(mask), g.NewSweep(), g.NewSweep()
		defer fld.Release()
		defer sw.Release()
		defer ref.Release()

		seeded := make([]bool, n)
		accept := func(v NodeID) bool { return seeded[v] }
		last := heapItem{node: Invalid}
		pop := func(limit float64) bool {
			u, d, ok := fld.Next(limit)
			if !ok {
				return false
			}
			if d > limit || d != fld.Dist(u) {
				t.Fatalf("Next(%v) = (%d, %v), field holds %v", limit, u, d, fld.Dist(u))
			}
			if now := (heapItem{u, d}); last.node != Invalid && now.Before(last) {
				t.Fatalf("(%v, %d) handed out after (%v, %d)", d, u, last.dist, last.node)
			} else {
				last = now
			}
			return true
		}
		check := func(step int) {
			want, horizon := multiSourceReference(g, mask, seeded), fld.Horizon()
			for i, w := range want {
				if d := fld.Dist(NodeID(i)); d < w || (w < horizon && d != w) {
					t.Fatalf("step %d, horizon %v: node %d holds %v, from scratch %v", step, horizon, i, d, w)
				}
			}
			got := sw.NearestWithin(fld, src, accept)
			node, p, d, settled := g.NearestOfCounted(src, mask, accept)
			if want := ref.runReference(src, mask, Invalid, nil, accept, nil, Unreachable); node != want || settled != ref.SettledCount() {
				t.Fatalf("step %d: nearest-of from %d found %d settling %d, reference %d settling %d", step, src, node, settled, want, ref.SettledCount())
			}
			if got != node || sw.SettledCount() > settled {
				t.Fatalf("step %d: confined sweep from %d found %d settling %d, unconfined %d settling %d", step, src, got, sw.SettledCount(), node, settled)
			}
			if got != Invalid && (sw.Dist(got) != d || !slices.Equal(sw.PathTo(got), p)) {
				t.Fatalf("step %d: confined sweep from %d: %v by %v, unconfined %v by %v", step, src, sw.Dist(got), sw.PathTo(got), d, p)
			}
		}

		step := 0
		for i := 0; i < n; i++ {
			v := NodeID((int(in.root) + i) % n)
			if !in.set(v) {
				continue
			}
			fld.Seed(v)
			seeded[v] = true
			redo := last.node
			last.node = Invalid // a new seed restarts the order
			switch step % 3 {
			case 0:
				for k := 0; k <= in.lowerKind && pop(Unreachable); k++ {
				}
			case 1:
				for pop(in.budget) {
				}
			case 2:
				if redo != Invalid {
					fld.Requeue(redo)
				}
				pop(Unreachable)
			}
			check(step)
			step++
		}
		for pop(Unreachable) {
		}
		if h := fld.Horizon(); h != Unreachable {
			t.Fatalf("drained field has horizon %v", h)
		}
		check(step)
	})
}
