package failure

import (
	"errors"
	"math"
	"testing"

	"smrp/internal/graph"
	"smrp/internal/multicast"
	"smrp/internal/topology"
)

// fig1SPFTree builds the paper's Figure 1 SPF tree: members C(3), D(4) via A.
func fig1SPFTree(t *testing.T) *multicast.Tree {
	t.Helper()
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := multicast.New(g, 0)
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

func TestKindAndFailureStrings(t *testing.T) {
	if LinkFailure.String() != "link" || NodeFailure.String() != "node" {
		t.Error("Kind String mismatch")
	}
	if Kind(0).String() == "" {
		t.Error("unknown kind should render")
	}
	f := LinkDown(2, 1)
	if f.String() != "link(1-2) down" {
		t.Errorf("LinkDown String = %q", f.String())
	}
	if NodeDown(3).String() != "node 3 down" {
		t.Errorf("NodeDown String = %q", NodeDown(3).String())
	}
	if (Failure{}).String() != "no failure" {
		t.Error("zero Failure should render as no failure")
	}
}

func TestMask(t *testing.T) {
	lm := LinkDown(1, 4).Mask()
	if !lm.EdgeBlocked(4, 1) || lm.NodeBlocked(1) {
		t.Error("link mask wrong")
	}
	nm := NodeDown(2).Mask()
	if !nm.NodeBlocked(2) || !nm.EdgeBlocked(2, 0) {
		t.Error("node mask wrong")
	}
}

func TestWorstCaseFor(t *testing.T) {
	tr := fig1SPFTree(t)
	f, err := WorstCaseFor(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != LinkFailure || f.Edge != graph.MakeEdgeID(0, 1) {
		t.Errorf("worst case for D = %v, want link (0-1)", f)
	}
	if _, err := WorstCaseFor(tr, 2); err == nil {
		t.Error("worst case for off-tree node should error")
	}
}

func TestWorstCaseForSource(t *testing.T) {
	tr := fig1SPFTree(t)
	if err := tr.Graft(graph.Path{0}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := WorstCaseFor(tr, 0); err == nil {
		t.Error("worst case for the source should error")
	}
}

func TestSurvivingNodes(t *testing.T) {
	tr := fig1SPFTree(t)
	// L_AD fails: D cut off, S/A/C survive.
	mask := LinkDown(1, 4).Mask()
	surv := SurvivingNodes(tr, mask)
	for _, n := range []graph.NodeID{0, 1, 3} {
		if !surv[n] {
			t.Errorf("node %d should survive", n)
		}
	}
	if surv[4] {
		t.Error("D should be disconnected")
	}
	// L_SA fails: only S survives.
	surv2 := SurvivingNodes(tr, LinkDown(0, 1).Mask())
	if len(surv2) != 1 || !surv2[0] {
		t.Errorf("after L_SA: surviving = %v", surv2)
	}
	// Source node failure: nothing survives.
	surv3 := SurvivingNodes(tr, NodeDown(0).Mask())
	if len(surv3) != 0 {
		t.Errorf("after source failure: surviving = %v", surv3)
	}
}

func TestDisconnectedMembers(t *testing.T) {
	tr := fig1SPFTree(t)
	got := DisconnectedMembers(tr, LinkDown(0, 1).Mask())
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("disconnected = %v, want [3 4]", got)
	}
	// A failed member is gone, not disconnected.
	got2 := DisconnectedMembers(tr, NodeDown(3).Mask())
	if len(got2) != 0 {
		t.Errorf("disconnected after member-node failure = %v", got2)
	}
	// Node A fails: both members disconnected.
	got3 := DisconnectedMembers(tr, NodeDown(1).Mask())
	if len(got3) != 2 {
		t.Errorf("disconnected after relay failure = %v", got3)
	}
}

// TestDeadRoots walks the primitive through its cases on Figure 1's tree
// S(0)→A(1)→{C(3), D(4)}: a cut that misses the tree, one dead subtree, a
// candidate nested under another (reported under the same root while the tree
// is left alone, skipped once the root's subtree is detached), and a failed
// source.
func TestDeadRoots(t *testing.T) {
	roots := func(tr *multicast.Tree, mask *graph.Mask, detach bool) ([]graph.NodeID, int) {
		t.Helper()
		var got []graph.NodeID
		_, visited, err := DeadRoots(tr, mask, nil, func(root graph.NodeID) (err error) {
			got = append(got, root)
			if detach {
				_, err = tr.DetachSubtree(root, nil)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, visited
	}

	tr := fig1SPFTree(t)
	if got, visited := roots(tr, LinkDown(0, 2).Mask(), false); len(got) != 0 || visited != 1 {
		t.Errorf("off-tree cut: roots %v, visited %d; want none, 1", got, visited)
	}
	// L_AD: D is the dead root, two hops below the source.
	if got, visited := roots(tr, LinkDown(1, 4).Mask(), false); len(got) != 1 || got[0] != 4 || visited != 1+2 {
		t.Errorf("L_AD: roots %v, visited %d; want [4], 3", got, visited)
	}
	// L_SA and node D: D lies under A, both candidates resolve to A.
	nested := LinkDown(0, 1).Mask().BlockNode(4)
	if got, _ := roots(tr, nested, false); len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Errorf("nested cut, tree left alone: roots %v, want [1 1]", got)
	}
	// Detaching A takes D along: one visit, one walk (1 hop) for two elements.
	if got, visited := roots(tr, nested, true); len(got) != 1 || got[0] != 1 || visited != 2+1 {
		t.Errorf("nested cut, detaching: roots %v, visited %d; want [1], 3", got, visited)
	}
	if tr.NumNodes() != 1 {
		t.Errorf("after the flush %d nodes stand, want the source alone", tr.NumNodes())
	}
	if _, _, err := DeadRoots(tr, NodeDown(0).Mask(), nil, func(graph.NodeID) error {
		t.Error("visit called although the source failed")
		return nil
	}); !errors.Is(err, ErrSourceFailed) {
		t.Errorf("source failure: err = %v", err)
	}
	// With the source down every member that is up counts as disconnected.
	if got := DisconnectedMembers(fig1SPFTree(t), NodeDown(0).Mask().BlockNode(3)); len(got) != 1 || got[0] != 4 {
		t.Errorf("disconnected after source failure = %v, want [4]", got)
	}
}

// TestFigure1Detours checks the paper's motivating numbers: after L_AD,
// D's local detour is D→C (RD 2) while the SPF global detour is D→B→S
// (RD 4, all links new).
func TestFigure1Detours(t *testing.T) {
	tr := fig1SPFTree(t)
	mask := LinkDown(1, 4).Mask()

	p, rd, err := LocalDetour(tr, mask, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rd != 2 || p.String() != "4→3" {
		t.Errorf("local detour = %v (RD %v), want D→C (2)", p, rd)
	}

	gp, grd, err := GlobalDetour(tr, mask, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gp.String() != "4→2→0" {
		t.Errorf("global detour path = %v, want D→B→S", gp)
	}
	if grd != 4 {
		t.Errorf("global RD = %v, want 4", grd)
	}
}

// TestGlobalDetourReusesSurvivingTree checks that links already on the
// surviving tree do not count toward the global recovery distance.
func TestGlobalDetourReusesSurvivingTree(t *testing.T) {
	// Line S(0)-1-2-3 with member at 3 and a shortcut 3-4-1 back to node 1.
	b := graph.New(5)
	for _, e := range []struct {
		u, v graph.NodeID
		w    float64
	}{
		{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 1, 1},
	} {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := multicast.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Members at 2 and 3.
	if err := tr.Graft(graph.Path{0, 1, 2}, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.Graft(graph.Path{2, 3}, true); err != nil {
		t.Fatal(err)
	}
	// Fail link 2-3: member 3 cut; surviving tree keeps S-1-2.
	mask := LinkDown(2, 3).Mask()
	p, rd, err := GlobalDetour(tr, mask, 3)
	if err != nil {
		t.Fatal(err)
	}
	// New shortest path 3→4→1→0; only links 3-4 and 4-1 are new (1-0 is on
	// the surviving tree).
	if p.String() != "3→4→1→0" {
		t.Errorf("path = %v", p)
	}
	if rd != 2 {
		t.Errorf("RD = %v, want 2 (tree link 1-0 reused)", rd)
	}
}

func TestDetourErrors(t *testing.T) {
	tr := fig1SPFTree(t)
	mask := LinkDown(1, 4).Mask()
	// C (3) is not disconnected.
	if _, _, err := LocalDetour(tr, mask, 3); !errors.Is(err, ErrNotDisconnected) {
		t.Errorf("local detour for connected member err = %v", err)
	}
	if _, _, err := GlobalDetour(tr, mask, 3); !errors.Is(err, ErrNotDisconnected) {
		t.Errorf("global detour for connected member err = %v", err)
	}
	// Source failure.
	if _, _, err := LocalDetour(tr, NodeDown(0).Mask(), 4); !errors.Is(err, ErrSourceFailed) {
		t.Errorf("source failure err = %v", err)
	}
	// Member's own node failed.
	if _, _, err := LocalDetour(tr, NodeDown(4).Mask(), 4); err == nil {
		t.Error("detour for failed member should error")
	}
	if _, _, err := GlobalDetour(tr, NodeDown(4).Mask(), 4); err == nil {
		t.Error("global detour for failed member should error")
	}
}

func TestDetourUnrecoverable(t *testing.T) {
	// S(0)-1 with member 1 and no alternative path.
	b := graph.New(2)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := multicast.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Graft(graph.Path{0, 1}, true); err != nil {
		t.Fatal(err)
	}
	mask := LinkDown(0, 1).Mask()
	if _, _, err := LocalDetour(tr, mask, 1); !errors.Is(err, ErrUnrecoverable) {
		t.Errorf("err = %v, want ErrUnrecoverable", err)
	}
	if _, _, err := GlobalDetour(tr, mask, 1); !errors.Is(err, ErrUnrecoverable) {
		t.Errorf("err = %v, want ErrUnrecoverable", err)
	}
}

// TestLocalNeverExceedsGlobalOnSameTree: on the SAME tree, the local detour
// reaches the nearest surviving node, so its RD can never exceed the weight
// of the global detour's full new path; and both recover whenever recovery
// is possible at all.
func TestLocalNeverExceedsGlobalOnSameTree(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		rng := topology.NewRNG(seed)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: 60, Alpha: 0.2, Beta: topology.DefaultBeta, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := multicast.New(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Build the SPF tree for 15 random members.
		spt := g.Dijkstra(0, nil)
		for _, m := range rng.Sample(59, 15) {
			n := graph.NodeID(m + 1)
			if tr.IsMember(n) {
				continue
			}
			if tr.OnTree(n) {
				if err := tr.Graft(graph.Path{n}, true); err != nil {
					t.Fatal(err)
				}
				continue
			}
			p := spt.PathTo(n)
			start := 0
			for i, x := range p {
				if tr.OnTree(x) {
					start = i
				} else {
					break
				}
			}
			if err := tr.Graft(p[start:], true); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range tr.Members() {
			f, err := WorstCaseFor(tr, m)
			if err != nil {
				t.Fatal(err)
			}
			mask := f.Mask()
			if !inSlice(DisconnectedMembers(tr, mask), m) {
				t.Fatalf("seed %d: worst-case failure did not disconnect %d", seed, m)
			}
			_, lrd, lerr := LocalDetour(tr, mask, m)
			gp, _, gerr := GlobalDetour(tr, mask, m)
			if (lerr == nil) != (gerr == nil) {
				t.Fatalf("seed %d member %d: recoverability mismatch (%v vs %v)", seed, m, lerr, gerr)
			}
			if lerr != nil {
				continue
			}
			gw, err := gp.Weight(g)
			if err != nil {
				t.Fatal(err)
			}
			if lrd > gw+1e-9 {
				t.Errorf("seed %d member %d: local RD %v exceeds full global path %v", seed, m, lrd, gw)
			}
			if lrd <= 0 || math.IsInf(lrd, 0) {
				t.Errorf("seed %d member %d: degenerate local RD %v", seed, m, lrd)
			}
		}
	}
}

func inSlice(s []graph.NodeID, n graph.NodeID) bool {
	for _, v := range s {
		if v == n {
			return true
		}
	}
	return false
}
