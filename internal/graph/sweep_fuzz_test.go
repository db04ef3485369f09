package graph

import "testing"

// FuzzSweepPruned holds RunPruned to its contract against the exhaustive Run
// on byte-decoded inputs: a small graph, a node/edge mask, an absorbing set, a
// source, a budget, and a consistent lower bound — shortest-path distances
// from some node, on the unmasked graph or under the same mask, or none.
// Weights and the budget are small integers, so every sum is exact and the
// region's edge is not blurred by rounding.
//
//   - every node the pruned run reaches has the Dist and Parent Run gives it
//     (and WeightFrom is the weight of its materialized path);
//   - every node Run reaches with dist + lower ≤ budget is reached.
func FuzzSweepPruned(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 0, 7, 0, 12, 0, 1, 2, 1, 2, 3, 2, 3, 0, 1, 0, 2, 5, 4, 5, 1, 5, 6, 1, 6, 7, 3, 7, 8, 2, 8, 4, 2})
	f.Add([]byte{20, 3, 19, 1, 30, 2, 0x55, 0xAA, 1, 5, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 5, 1, 5, 6, 1, 6, 7, 1, 7, 8, 1, 8, 9, 1, 9, 10, 1,
		10, 11, 1, 11, 12, 1, 12, 13, 1, 13, 14, 1, 14, 15, 1, 15, 16, 1, 16, 17, 1, 17, 18, 1, 18, 19, 1, 19, 0, 1, 0, 10, 4, 5, 15, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 2 + next()%30
		src := NodeID(next() % n)
		root := NodeID(next() % n)
		lowerKind := next() % 3 // 0: none, 1: unmasked distances, 2: masked distances
		budget := float64(next() % 64)
		maskBits := next() | next()<<8
		absorbBits := next() | next()<<8
		nodeBlocks, edgeBlocks := next()%4, next()%4

		g := New(n)
		var edges []EdgeID
		for len(data) >= 3 {
			u, v, w := NodeID(next()%n), NodeID(next()%n), float64(1+next()%8)
			if u != v && g.AddEdge(u, v, w) == nil {
				edges = append(edges, MakeEdgeID(u, v))
			}
		}
		var mask *Mask
		if nodeBlocks+edgeBlocks > 0 {
			mask = NewMask()
			for i := 0; i < nodeBlocks; i++ {
				if v := NodeID((maskBits >> (4 * i)) % n); v != src {
					mask.BlockNode(v)
				}
			}
			for i := 0; i < edgeBlocks && len(edges) > 0; i++ {
				e := edges[(maskBits>>(3*i))%len(edges)]
				mask.BlockEdge(e.A, e.B)
			}
		}
		absorbing := func(v NodeID) bool { return absorbBits>>(uint(v)%16)&1 != 0 }
		var lower []float64
		switch lowerKind {
		case 1:
			lower = g.dijkstra(root, nil).Dist
		case 2:
			lower = g.dijkstra(root, mask).Dist
		}

		full, pruned := g.NewSweep(), g.NewSweep()
		defer full.Release()
		defer pruned.Release()
		full.Run(src, mask, absorbing)
		pruned.RunPruned(src, mask, absorbing, lower, budget)

		if pruned.SettledCount() > full.SettledCount() {
			t.Fatalf("pruned run settled %d nodes, exhaustive %d", pruned.SettledCount(), full.SettledCount())
		}
		for i := 0; i < n; i++ {
			v := NodeID(i)
			if pruned.Reached(v) {
				if !full.Reached(v) || pruned.Dist(v) != full.Dist(v) || pruned.Parent(v) != full.Parent(v) {
					t.Fatalf("node %d: pruned (dist, parent) = (%v, %d), exhaustive (%v, %d), reached=%v",
						v, pruned.Dist(v), pruned.Parent(v), full.Dist(v), full.Parent(v), full.Reached(v))
				}
				if w, err := pruned.PathFrom(v).Weight(g); err != nil || w != pruned.WeightFrom(v) {
					t.Fatalf("node %d: WeightFrom = %v, path weight %v (%v)", v, pruned.WeightFrom(v), w, err)
				}
				continue
			}
			reach := full.Dist(v)
			if lower != nil {
				reach += lower[v]
			}
			if full.Reached(v) && reach <= budget {
				t.Fatalf("node %d: dist %v + lower = %v within budget %v, not reached", v, full.Dist(v), reach, budget)
			}
		}
	})
}
