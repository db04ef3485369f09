package graph

import (
	"math/rand"
	"testing"
)

// ispfTestGraph builds a deterministic random-ish connected graph large
// enough for repairs to have real orphan subtrees.
func ispfTestGraph(t *testing.T) *Graph {
	t.Helper()
	const n = 64
	b, seen := New(n), map[EdgeID]bool{}
	r := rand.New(rand.NewSource(42))
	for i := 1; i < n; i++ {
		// spanning chain with varied weights keeps everything reachable
		seen[MakeEdgeID(NodeID(i-1), NodeID(i))] = true
		if err := b.AddEdge(NodeID(i-1), NodeID(i), 1+float64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 3*n; k++ {
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if u == v || seen[MakeEdgeID(u, v)] {
			continue
		}
		seen[MakeEdgeID(u, v)] = true
		if err := b.AddEdge(u, v, 1+float64(r.Intn(9))); err != nil {
			t.Fatal(err)
		}
	}
	return mustFreeze(b)
}

// TestISPFRepairSteadyStateAllocs pins the delta-repair core at zero heap
// allocations once the pooled scratch arena is warm. Clone-on-write of the
// base tree and the entry's mask clone are inherent per-miss costs and are
// deliberately outside the guard — this guards the repair itself.
func TestISPFRepairSteadyStateAllocs(t *testing.T) {
	g := ispfTestGraph(t)
	src := NodeID(0)
	base := g.dijkstra(src, nil)

	victimN := NodeID(17)
	victimE := MakeEdgeID(5, 6)
	maskFail := NewMask().BlockNode(victimN).BlockEdge(victimE.A, victimE.B)
	maskNone := NewMask()
	addedFail := []MaskElem{{Node: victimN}, {Edge: victimE, IsEdge: true}}

	sc := ispfPool.Get().(*ispfScratch)
	defer ispfPool.Put(sc)
	tr := cloneTree(base)

	cycle := func() {
		// fail, then repair back to the empty mask: tr returns to its
		// starting state so the cycle is repeatable in place.
		if _, ok := ispfRepair(g, tr, addedFail, nil, maskFail, sc); !ok {
			t.Fatal("failure repair declined")
		}
		if _, ok := ispfRepair(g, tr, nil, addedFail, maskNone, sc); !ok {
			t.Fatal("revival repair declined")
		}
	}
	cycle() // warm the arena (heap growth, stamp arrays, diff splits)
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("steady-state delta repair allocates %.1f objects/cycle, want 0", allocs)
	}
	// The round-trip must land exactly on the original tree.
	for v := range tr.Dist {
		if tr.Dist[v] != base.Dist[v] || tr.Parent(NodeID(v)) != base.Parent(NodeID(v)) {
			t.Fatalf("round-trip diverged at node %d: (%v,%v) != (%v,%v)",
				v, tr.Dist[v], tr.Parent(NodeID(v)), base.Dist[v], base.Parent(NodeID(v)))
		}
	}
}

// TestISPFSiblingMaskSwap repairs a tree computed under {e1} to the mask
// {e2}, a diff with an added AND a removed edge at once, for every ordered
// pair from a sample of edges. Orphans of e2 may re-attach through the
// revived e1 at their final distance; the repair must then still carry the
// gain on to the alive nodes beyond them, which a repair that re-relaxed
// orphans alone once failed to do.
func TestISPFSiblingMaskSwap(t *testing.T) {
	g := ispfTestGraph(t)
	src := NodeID(0)
	edges := g.Edges()
	step := len(edges)/12 + 1
	for i := 0; i < len(edges); i += step {
		for j := 0; j < len(edges); j += step {
			if i == j {
				continue
			}
			e1, e2 := edges[i], edges[j]
			// Seed the repair base under {e1}, then query the sibling mask {e2}:
			// the second query is a delta with added={e2}, removed={e1}.
			m1 := NewMask().BlockEdge(e1.A, e1.B)
			g.Dijkstra(src, m1)
			m2 := NewMask().BlockEdge(e2.A, e2.B)
			got := g.Dijkstra(src, m2)
			want := g.dijkstra(src, m2)
			for v := range want.Dist {
				if got.Dist[v] != want.Dist[v] || got.Parent(NodeID(v)) != want.Parent(NodeID(v)) {
					t.Fatalf("swap %v->%v: node %d got (%v,%v) want (%v,%v)",
						e1, e2, v, got.Dist[v], got.Parent(NodeID(v)), want.Dist[v], want.Parent(NodeID(v)))
				}
			}
		}
	}
}

// TestSPFDeltaToggle pins the baseline switch: with the delta path disabled
// every miss is a full sweep, and results are unchanged.
func TestSPFDeltaToggle(t *testing.T) {
	g := ispfTestGraph(t)
	src := NodeID(0)

	m := NewMask()
	ref := make([]*SPTree, 0, 4)
	for i := 0; i < 4; i++ {
		m.BlockNode(NodeID(10 + i))
		ref = append(ref, cloneTree(g.Dijkstra(src, m)))
	}

	SetSPFDelta(false)
	defer SetSPFDelta(true)
	if !spfDeltaOff.Load() {
		t.Fatal("SetSPFDelta(false) did not take effect")
	}
	g.SPFCacheOf().Flush()
	// recompute from an empty cache; everything must be a full sweep
	before := SPFCounters()
	m2 := NewMask()
	for i := 0; i < 4; i++ {
		m2.BlockNode(NodeID(10 + i))
		tr := g.Dijkstra(src, m2)
		for v := range tr.Dist {
			if tr.Dist[v] != ref[i].Dist[v] || tr.Parent(NodeID(v)) != ref[i].Parent(NodeID(v)) {
				t.Fatalf("delta-off tree %d differs at node %d", i, v)
			}
		}
	}
	d := SPFCounters().Sub(before)
	if d.DeltaRuns != 0 || d.FullRuns == 0 {
		t.Fatalf("delta disabled but counters say full=%d delta=%d", d.FullRuns, d.DeltaRuns)
	}
}
