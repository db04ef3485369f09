package multicast

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"smrp/internal/graph"
)

// twinTrees drives an identical random mutation sequence — grafts, leaves,
// reroutes, subtree removals/detachments, stale pruning, clone swaps —
// through a dense and a sparse tree on the same graph, checking after every
// operation that all observable state is bit-identical. This is the
// equivalence oracle that lets the sparse backend stand in for the dense one
// anywhere without perturbing a single study output. The last trial runs on
// 2 000 nodes, where the sparse slot index grows several times under churn.
func TestSparseDenseEquivalence(t *testing.T) {
	for trial := 0; trial < 9; trial++ {
		rng := rand.New(rand.NewSource(int64(5100 + trial)))
		n := 40 + rng.Intn(40)
		if trial == 8 {
			n = 2000
		}
		b := graph.New(n)
		linked := map[graph.EdgeID]bool{}
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			u, v := graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)])
			linked[graph.MakeEdgeID(u, v)] = true
			_ = b.AddEdge(u, v, 1+rng.Float64())
		}
		for i := 0; i < 2*n; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if e := graph.MakeEdgeID(u, v); u != v && !linked[e] {
				linked[e] = true
				_ = b.AddEdge(u, v, 1+rng.Float64())
			}
		}
		g := b.Freeze()
		dense, err := New(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := NewSparse(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.SparseStorage() || dense.SparseStorage() {
			t.Fatal("backend selection broken")
		}

		// hints holds the parent of every subtree detached since the trees were
		// last pruned: what PruneFrom needs to stand in for PruneStale.
		var hints []graph.NodeID
		for op := 0; op < 300; op++ {
			r := rng.Float64()
			switch {
			case r < 0.5 || dense.NumMembers() == 0:
				cand := graph.NodeID(rng.Intn(n))
				if dense.IsMember(cand) {
					continue
				}
				if dense.OnTree(cand) {
					mustBoth(t, trial, op, "graft-in-place",
						dense.Graft(graph.Path{cand}, true), sparse.Graft(graph.Path{cand}, true))
				} else {
					_, p, _ := g.NearestOf(cand, nil, dense.OnTree)
					if p == nil {
						continue
					}
					gp := p.Reverse()
					mustBoth(t, trial, op, "graft",
						dense.Graft(gp, true), sparse.Graft(slices.Clone(gp), true))
				}
			case r < 0.75:
				ms := dense.Members()
				m := ms[rng.Intn(len(ms))]
				mustBoth(t, trial, op, "leave", dense.Leave(m), sparse.Leave(m))
			case r < 0.85:
				nodes := dense.Nodes()
				v := nodes[rng.Intn(len(nodes))]
				if v == dense.Source() {
					continue
				}
				p, _ := dense.Parent(v)
				df, errDense := dense.DetachSubtree(v, nil)
				sf, errSparse := sparse.DetachSubtree(v, nil)
				mustBoth(t, trial, op, "detach-subtree", errDense, errSparse)
				slices.Sort(df)
				slices.Sort(sf)
				if !slices.Equal(df, sf) {
					t.Fatalf("trial %d op %d: flushed members %v != %v", trial, op, df, sf)
				}
				if rng.Intn(2) == 0 {
					hints = append(hints, p)
				} else if dr, sr := dense.PruneFrom([]graph.NodeID{p}), sparse.PruneFrom([]graph.NodeID{p}); !slices.Equal(dr, sr) {
					t.Fatalf("trial %d op %d: pruned %v != %v", trial, op, dr, sr)
				}
			case r < 0.92:
				want := staleByFixpoint(dense)
				swept, sweptSparse := dense.Clone().PruneStale(), sparse.Clone().PruneStale()
				dr := dense.PruneFrom(hints)
				sr := sparse.PruneFrom(hints)
				if !slices.Equal(dr, want) || !slices.Equal(sr, want) || !slices.Equal(swept, want) || !slices.Equal(sweptSparse, want) {
					t.Fatalf("trial %d op %d: PruneFrom %v and %v, PruneStale %v and %v, want %v", trial, op, dr, sr, swept, sweptSparse, want)
				}
				hints = hints[:0]
			default:
				// Clone both and continue the run on the clones: clone
				// lineage must preserve equivalence (reshaping works on
				// clones of live session trees).
				dense, sparse = dense.Clone(), sparse.Clone()
			}
			compareTrees(t, trial, op, dense, sparse)
		}
		if trial == 8 && len(sparse.slots.tab) < minSlotTable<<4 {
			t.Fatalf("slot index of %d entries grew fewer than 4 times", len(sparse.slots.tab))
		}
	}
}

// staleByFixpoint is what stale pruning must remove, by its definition: on a
// copy of t, drop every childless non-member relay, again and again until
// none is left.
func staleByFixpoint(t *Tree) []graph.NodeID {
	c := t.Clone()
	var removed []graph.NodeID
	for {
		var victims []graph.NodeID
		for _, n := range c.Nodes() {
			if n != c.Source() && len(c.ChildList(n)) == 0 && !c.IsMember(n) {
				victims = append(victims, n)
			}
		}
		if len(victims) == 0 {
			slices.Sort(removed)
			return removed
		}
		for _, n := range victims {
			c.detach(n)
		}
		removed = append(removed, victims...)
	}
}

func mustBoth(t *testing.T, trial, op int, what string, errDense, errSparse error) {
	t.Helper()
	if (errDense == nil) != (errSparse == nil) {
		t.Fatalf("trial %d op %d: %s diverges: dense=%v sparse=%v", trial, op, what, errDense, errSparse)
	}
}

// compareTrees asserts every observable of the two trees is bit-identical.
func compareTrees(t *testing.T, trial, op int, a, b *Tree) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("trial %d op %d: %s", trial, op, fmt.Sprintf(format, args...))
	}
	if a.Epoch() != b.Epoch() {
		fail("epoch %d != %d", a.Epoch(), b.Epoch())
	}
	if a.NumNodes() != b.NumNodes() || a.NumMembers() != b.NumMembers() {
		fail("counts (%d,%d) != (%d,%d)", a.NumNodes(), a.NumMembers(), b.NumNodes(), b.NumMembers())
	}
	an, bn := a.Nodes(), b.Nodes()
	if !slices.Equal(an, bn) {
		fail("nodes %v != %v", an, bn)
	}
	if wa, wb := a.RepairSHR(), b.RepairSHR(); wa != wb {
		fail("SHR repair wrote %d != %d", wa, wb)
	}
	if !slices.Equal(a.Members(), b.Members()) {
		fail("members %v != %v", a.Members(), b.Members())
	}
	if !slices.Equal(a.Edges(), b.Edges()) {
		fail("edges diverge")
	}
	ac, aerr := a.Cost()
	bc, berr := b.Cost()
	if (aerr == nil) != (berr == nil) || math.Float64bits(ac) != math.Float64bits(bc) {
		fail("cost %v (%v) != %v (%v)", ac, aerr, bc, berr)
	}
	for _, node := range an {
		ap, aok := a.Parent(node)
		bp, bok := b.Parent(node)
		if ap != bp || aok != bok {
			fail("parent(%d) (%d,%v) != (%d,%v)", node, ap, aok, bp, bok)
		}
		if !slices.Equal(a.ChildList(node), b.ChildList(node)) {
			fail("children(%d) diverge", node)
		}
		anr, _ := a.MemberCount(node)
		bnr, _ := b.MemberCount(node)
		if anr != bnr {
			fail("N_%d %d != %d", node, anr, bnr)
		}
		if a.SHR(node) != b.SHR(node) {
			fail("SHR_%d %d != %d", node, a.SHR(node), b.SHR(node))
		}
		if a.TopAncestor(node) != b.TopAncestor(node) {
			fail("top ancestor(%d) diverges", node)
		}
		ad, _ := a.DelayTo(node)
		bd, _ := b.DelayTo(node)
		if math.Float64bits(ad) != math.Float64bits(bd) {
			fail("delay(%d) %v != %v", node, ad, bd)
		}
		// DelayTo walks the parent pointers; the path it stands for, weighed
		// link by link from the node upward, is the same float.
		up, _ := a.PathToSource(node)
		if w, err := up.Weight(a.Graph()); err != nil || math.Float64bits(w) != math.Float64bits(ad) {
			fail("delay(%d) %v, its path %v weighs %v (%v)", node, ad, up, w, err)
		}
		as, _ := a.SubtreeNodes(node)
		bs, _ := b.SubtreeNodes(node)
		if !slices.Equal(as, bs) {
			fail("subtree(%d) diverges", node)
		}
		// The unsorted walk lists the same nodes, the root first and every
		// node after its parent, behind whatever the buffer held.
		for _, tr := range []*Tree{a, b} {
			walk := tr.AppendSubtree([]graph.NodeID{graph.Invalid}, node)
			if walk[0] != graph.Invalid || walk[1] != node {
				fail("AppendSubtree(%d) starts %v", node, walk[:2])
			}
			for i, v := range walk[2:] {
				if p, _ := tr.Parent(v); !slices.Contains(walk[1:i+2], p) {
					fail("AppendSubtree(%d) lists %d before its parent %d", node, v, p)
				}
			}
			if slices.Sort(walk[1:]); !slices.Equal(walk[1:], as) {
				fail("AppendSubtree(%d) = %v, SubtreeNodes %v", node, walk[1:], as)
			}
		}
	}
	if err := a.Validate(); err != nil {
		fail("dense invariant: %v", err)
	}
	if err := b.Validate(); err != nil {
		fail("sparse invariant: %v", err)
	}
	if a.MemoryFootprint() <= 0 || b.MemoryFootprint() <= 0 {
		fail("non-positive footprint")
	}
}
