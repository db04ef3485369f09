package multicast

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"smrp/internal/graph"
)

// testGraph builds the Figure-1-like graph used across these tests:
//
//	S(0)-A(1):1  S-B(2):4  A-C(3):2  A-D(4):1  C-D:2  B-D:3
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.New(5)
	edges := []struct {
		u, v graph.NodeID
		w    float64
	}{
		{0, 1, 1}, {0, 2, 4}, {1, 3, 2}, {1, 4, 1}, {3, 4, 2}, {2, 4, 3},
	}
	for _, e := range edges {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fig1Tree grafts the SPF tree for members {C=3, D=4}: S→A→C, S→A→D.
func fig1Tree(t *testing.T) *Tree {
	t.Helper()
	tr, err := New(testGraph(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Graft(graph.Path{0, 1, 3}, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.Graft(graph.Path{1, 4}, true); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewRejectsBadSource(t *testing.T) {
	g := testGraph(t)
	if _, err := New(g, 99); err == nil {
		t.Error("source outside graph should error")
	}
	if _, err := New(g, -1); err == nil {
		t.Error("negative source should error")
	}
}

func TestGraftAndAccessors(t *testing.T) {
	tr := fig1Tree(t)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.NumMembers() != 2 || tr.NumNodes() != 4 {
		t.Errorf("members=%d nodes=%d, want 2, 4", tr.NumMembers(), tr.NumNodes())
	}
	if !tr.IsMember(3) || !tr.IsMember(4) || tr.IsMember(1) {
		t.Error("membership flags wrong")
	}
	if p, ok := tr.Parent(3); !ok || p != 1 {
		t.Errorf("Parent(3) = %d,%v", p, ok)
	}
	kids := tr.Children(1)
	if len(kids) != 2 || kids[0] != 3 || kids[1] != 4 {
		t.Errorf("Children(1) = %v", kids)
	}
	if got := tr.Members(); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("Members = %v", got)
	}
	nodes := tr.Nodes()
	if len(nodes) != 4 || nodes[0] != 0 {
		t.Errorf("Nodes = %v", nodes)
	}
	if tr.Source() != 0 {
		t.Errorf("Source = %d", tr.Source())
	}
	if tr.Graph() == nil {
		t.Error("Graph accessor nil")
	}
}

func TestGraftErrors(t *testing.T) {
	tr := fig1Tree(t)
	tests := []struct {
		name string
		path graph.Path
	}{
		{name: "empty", path: nil},
		{name: "merger off tree", path: graph.Path{2, 4}},
		{name: "intermediate on tree", path: graph.Path{0, 1, 4}},
		{name: "non-edge", path: graph.Path{0, 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tr.Graft(tt.path, true); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestNonSimplePathsRefused holds Graft and Reroute to refusing a path that
// passes every other check but visits an off-tree node twice, and to leaving
// the tree as it was; the same path without the detour is accepted.
func TestNonSimplePathsRefused(t *testing.T) {
	tr, err := New(testGraph(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Graft(graph.Path{0, 1, 3, 1, 4}, true); err == nil || !strings.Contains(err.Error(), "not simple") {
		t.Errorf("graft through 1 twice: err = %v, want the path refused as not simple", err)
	}
	if tr.NumNodes() != 1 || tr.NumMembers() != 0 {
		t.Errorf("refused graft left %d nodes, %d members", tr.NumNodes(), tr.NumMembers())
	}
	if err := tr.Clone().Graft(graph.Path{0, 1, 4}, true); err != nil {
		t.Errorf("graft of the simple path: %v", err)
	}

	if err := tr.Graft(graph.Path{0, 2, 4}, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.Reroute(4, graph.Path{0, 1, 3, 1, 4}); err == nil || !strings.Contains(err.Error(), "not simple") {
		t.Errorf("reroute through 1 twice: err = %v, want the path refused as not simple", err)
	}
	if p, _ := tr.Parent(4); p != 2 || tr.OnTree(1) || tr.OnTree(3) {
		t.Errorf("refused reroute moved 4 under %d (1 on tree: %v, 3: %v)", p, tr.OnTree(1), tr.OnTree(3))
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("refused reroute corrupted the tree: %v", err)
	}
	if err := tr.Clone().Reroute(4, graph.Path{0, 1, 4}); err != nil {
		t.Errorf("reroute along the simple path: %v", err)
	}
}

func TestGraftSingleNodeMakesMember(t *testing.T) {
	tr := fig1Tree(t)
	// Node A (1) is an on-tree relay; it can become a member in place.
	if err := tr.Graft(graph.Path{1}, true); err != nil {
		t.Fatalf("Graft single: %v", err)
	}
	if !tr.IsMember(1) {
		t.Error("node 1 should now be a member")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestEdgesAndUsesEdge(t *testing.T) {
	tr := fig1Tree(t)
	edges := tr.Edges()
	want := []graph.EdgeID{{A: 0, B: 1}, {A: 1, B: 3}, {A: 1, B: 4}}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("Edges[%d] = %v, want %v", i, edges[i], want[i])
		}
	}
	if !slices.Contains(edges, graph.MakeEdgeID(1, 0)) {
		t.Error("the tree should use S-A")
	}
	if slices.Contains(edges, graph.MakeEdgeID(3, 4)) {
		t.Error("the tree should not use C-D")
	}
}

func TestPathDelayCost(t *testing.T) {
	tr := fig1Tree(t)
	p, err := tr.PathToSource(3)
	if err != nil || p.String() != "3→1→0" {
		t.Errorf("PathToSource(3) = %v, %v", p, err)
	}
	d, err := tr.DelayTo(3)
	if err != nil || d != 3 {
		t.Errorf("DelayTo(3) = %v, %v, want 3", d, err)
	}
	c, err := tr.Cost()
	if err != nil || c != 4 {
		t.Errorf("Cost = %v, %v, want 4 (1+2+1)", c, err)
	}
	if _, err := tr.PathToSource(2); !errors.Is(err, ErrNotOnTree) {
		t.Errorf("PathToSource(off-tree) err = %v", err)
	}
	if _, err := tr.DelayTo(2); !errors.Is(err, ErrNotOnTree) {
		t.Errorf("DelayTo(off-tree) err = %v", err)
	}
	// A corrupted parent vector (3 and 1 each other's parent) must end the
	// walk with an error, as it ends PathToSource.
	tr.parent[1] = 3
	if _, err := tr.DelayTo(3); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("DelayTo on a parent cycle: err = %v", err)
	}
	tr.parent[1] = 0
}

func TestMemberCounts(t *testing.T) {
	tr := fig1Tree(t)
	wants := map[graph.NodeID]int{0: 2, 1: 2, 3: 1, 4: 1}
	for n, w := range wants {
		if got, err := tr.MemberCount(n); err != nil || got != w {
			t.Errorf("N_%d = %d, %v; want %d", n, got, err, w)
		}
	}
	if _, err := tr.MemberCount(2); !errors.Is(err, ErrNotOnTree) {
		t.Errorf("MemberCount off-tree err = %v", err)
	}
	// Interior member counts itself.
	if err := tr.Graft(graph.Path{1}, true); err != nil {
		t.Fatal(err)
	}
	if got, _ := tr.MemberCount(1); got != 3 {
		t.Errorf("N_1 after interior membership = %d, want 3", got)
	}
}

func TestLeaveLeafPrunes(t *testing.T) {
	tr := fig1Tree(t)
	if err := tr.Leave(3); err != nil {
		t.Fatal(err)
	}
	if tr.OnTree(3) {
		t.Error("leaf member should be pruned after leave")
	}
	if !tr.OnTree(1) {
		t.Error("relay with remaining member below must stay")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	// Last member leaving collapses everything but the source.
	if err := tr.Leave(4); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 || !tr.OnTree(0) {
		t.Errorf("after all leaves: nodes = %v", tr.Nodes())
	}
}

func TestLeaveInteriorMemberKeepsRelay(t *testing.T) {
	g := testGraph(t)
	tr, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// S→A→D with A also a member; D member below A.
	if err := tr.Graft(graph.Path{0, 1}, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.Graft(graph.Path{1, 4}, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.Leave(1); err != nil {
		t.Fatal(err)
	}
	if !tr.OnTree(1) {
		t.Error("interior ex-member must remain as relay for downstream member")
	}
	if tr.IsMember(1) {
		t.Error("membership should be cleared")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestLeaveErrors(t *testing.T) {
	tr := fig1Tree(t)
	if err := tr.Leave(1); !errors.Is(err, ErrNotMember) {
		t.Errorf("Leave(non-member) err = %v", err)
	}
}

func TestSubtreeNodes(t *testing.T) {
	tr := fig1Tree(t)
	sub, err := tr.SubtreeNodes(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 3 || sub[0] != 1 || sub[1] != 3 || sub[2] != 4 {
		t.Errorf("SubtreeNodes(1) = %v", sub)
	}
}

func TestReroute(t *testing.T) {
	tr := fig1Tree(t)
	// Move D (4) from parent A to hang off C via edge C-D.
	if err := tr.Reroute(4, graph.Path{3, 4}); err != nil {
		t.Fatal(err)
	}
	if p, _ := tr.Parent(4); p != 3 {
		t.Errorf("Parent(4) = %d, want 3", p)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := tr.DelayTo(4)
	if err != nil || d != 5 {
		t.Errorf("DelayTo(4) = %v, want 5 (1+2+2)", d)
	}
}

func TestRerouteMovesSubtree(t *testing.T) {
	g := testGraph(t)
	tr, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Chain S→A→D→C with C member, D member.
	if err := tr.Graft(graph.Path{0, 1, 4}, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.Graft(graph.Path{4, 3}, true); err != nil {
		t.Fatal(err)
	}
	// Reroute D to S via B: path S(0)→B(2)→D(4). C must follow underneath.
	if err := tr.Reroute(4, graph.Path{0, 2, 4}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if p, _ := tr.Parent(3); p != 4 {
		t.Errorf("C should still hang under D, parent = %d", p)
	}
	if tr.OnTree(1) {
		t.Error("old relay A should be pruned")
	}
}

func TestRerouteErrors(t *testing.T) {
	tr := fig1Tree(t)
	tests := []struct {
		name string
		m    graph.NodeID
		path graph.Path
	}{
		{name: "off-tree member", m: 2, path: graph.Path{0, 2}},
		{name: "short path", m: 4, path: graph.Path{4}},
		{name: "wrong endpoint", m: 4, path: graph.Path{0, 2}},
		{name: "merger off tree", m: 4, path: graph.Path{2, 4}},
		{name: "merger inside subtree", m: 1, path: graph.Path{3, 1}},
		{name: "non-edge hop", m: 4, path: graph.Path{0, 4}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tr.Reroute(tt.m, tt.path); err == nil {
				t.Error("expected error")
			}
		})
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("failed reroutes must not corrupt the tree: %v", err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	tr := fig1Tree(t)
	c := tr.Clone()
	if err := c.Leave(3); err != nil {
		t.Fatal(err)
	}
	if !tr.IsMember(3) || !tr.OnTree(3) {
		t.Error("mutating clone affected original")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

// TestRandomChurnInvariant property-tests the tree under random join/leave
// churn: after every operation the structural invariants must hold and every
// member must have a loop-free path to the source.
func TestRandomChurnInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n := 30
		b := graph.New(n)
		linked := map[graph.EdgeID]bool{}
		// Random connected graph: spanning tree + extras.
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			u, v := graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)])
			linked[graph.MakeEdgeID(u, v)] = true
			_ = b.AddEdge(u, v, 1+rng.Float64())
		}
		for i := 0; i < n; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if e := graph.MakeEdgeID(u, v); u != v && !linked[e] {
				linked[e] = true
				_ = b.AddEdge(u, v, 1+rng.Float64())
			}
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := New(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 200; op++ {
			if rng.Float64() < 0.6 || tr.NumMembers() == 0 {
				// Join a random non-member along its shortest path to the
				// nearest on-tree node.
				cand := graph.NodeID(rng.Intn(n))
				if tr.IsMember(cand) {
					continue
				}
				if tr.OnTree(cand) {
					if err := tr.Graft(graph.Path{cand}, true); err != nil {
						t.Fatalf("trial %d op %d: graft-in-place: %v", trial, op, err)
					}
				} else {
					_, p, _ := g.NearestOf(cand, nil, tr.OnTree)
					if p == nil {
						continue
					}
					if err := tr.Graft(p.Reverse(), true); err != nil {
						t.Fatalf("trial %d op %d: graft %v: %v", trial, op, p, err)
					}
				}
			} else {
				ms := tr.Members()
				m := ms[rng.Intn(len(ms))]
				if err := tr.Leave(m); err != nil {
					t.Fatalf("trial %d op %d: leave %d: %v", trial, op, m, err)
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("trial %d op %d: invariant: %v", trial, op, err)
			}
			for _, m := range tr.Members() {
				if _, err := tr.PathToSource(m); err != nil {
					t.Fatalf("trial %d op %d: member %d: %v", trial, op, m, err)
				}
			}
		}
	}
}
