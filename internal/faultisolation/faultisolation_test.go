package faultisolation

import (
	"errors"
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/multicast"
	"smrp/internal/topology"
)

// fig1Tree builds the Figure-1 SPF tree: members C(3), D(4) via A(1).
func fig1Tree(t *testing.T) *multicast.Tree {
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

func TestIsolateSingleLeafCut(t *testing.T) {
	tr := fig1Tree(t)
	// L_AD fails: only D (4) dark.
	obs := ObserveFailure(tr, failure.LinkDown(1, 4).Mask())
	suspects, err := Isolate(tr, obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(suspects) != 1 {
		t.Fatalf("suspects = %v", suspects)
	}
	if suspects[0].Edge != graph.MakeEdgeID(1, 4) || suspects[0].Down != 4 {
		t.Errorf("suspect = %+v, want edge (1-4) down 4", suspects[0])
	}
	if suspects[0].DarkMembers != 1 {
		t.Errorf("dark members = %d", suspects[0].DarkMembers)
	}
}

func TestIsolateSharedLinkCut(t *testing.T) {
	tr := fig1Tree(t)
	// L_SA fails: both members dark; the suspect is the highest dark edge.
	obs := ObserveFailure(tr, failure.LinkDown(0, 1).Mask())
	suspects, err := Isolate(tr, obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(suspects) != 1 {
		t.Fatalf("suspects = %v", suspects)
	}
	if suspects[0].Edge != graph.MakeEdgeID(0, 1) || suspects[0].DarkMembers != 2 {
		t.Errorf("suspect = %+v", suspects[0])
	}
}

func TestIsolateNodeFailureEquivalence(t *testing.T) {
	tr := fig1Tree(t)
	// Node A (1) fails: observationally identical to L_SA failing.
	obs := ObserveFailure(tr, failure.NodeDown(1).Mask())
	suspects, err := Isolate(tr, obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(suspects) != 1 || suspects[0].Down != 1 {
		t.Errorf("suspects = %v, want downstream node A", suspects)
	}
}

func TestIsolateNoFailure(t *testing.T) {
	tr := fig1Tree(t)
	obs := NewObservation([]graph.NodeID{3, 4})
	if _, err := Isolate(tr, obs); !errors.Is(err, ErrNoFailure) {
		t.Errorf("err = %v", err)
	}
}

func TestIsolateInconsistent(t *testing.T) {
	tr := fig1Tree(t)
	// A non-member reported reachable.
	obs := NewObservation([]graph.NodeID{2})
	if _, err := Isolate(tr, obs); !errors.Is(err, ErrInconsistent) {
		t.Errorf("err = %v", err)
	}
}

func TestIsolateMultipleFailures(t *testing.T) {
	// Star tree: S with three member branches; two branches cut.
	b := graph.New(4)
	for i := 1; i < 4; i++ {
		if err := b.AddEdge(0, graph.NodeID(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Freeze()
	tr, err := multicast.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if err := tr.Graft(graph.Path{0, graph.NodeID(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	mask := failure.LinkDown(0, 1).Mask().Union(failure.LinkDown(0, 3).Mask())
	obs := ObserveFailure(tr, mask)
	suspects, err := Isolate(tr, obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(suspects) != 2 {
		t.Fatalf("suspects = %v, want two", suspects)
	}
	got := map[graph.EdgeID]bool{}
	for _, s := range suspects {
		got[s.Edge] = true
	}
	if !got[graph.MakeEdgeID(0, 1)] || !got[graph.MakeEdgeID(0, 3)] {
		t.Errorf("suspects = %v", suspects)
	}
}

// TestIsolationAlwaysContainsTrueFailure property-checks on random trees:
// for every member's worst-case link failure, the true failed edge is in
// the suspect set.
func TestIsolationAlwaysContainsTrueFailure(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		rng := topology.NewRNG(seed + 31)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: 60, Alpha: 0.25, Beta: topology.DefaultBeta, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := multicast.New(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		spt := g.Dijkstra(0, nil)
		for _, m := range rng.Sample(59, 12) {
			n := graph.NodeID(m + 1)
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
			f, err := failure.WorstCaseFor(tr, m)
			if err != nil {
				t.Fatal(err)
			}
			obs := ObserveFailure(tr, f.Mask())
			suspects, err := Isolate(tr, obs)
			if err != nil {
				t.Fatalf("seed %d member %d: %v", seed, m, err)
			}
			found := false
			for _, s := range suspects {
				if s.Edge == f.Edge {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("seed %d member %d: true failure %v not among suspects %v",
					seed, m, f.Edge, suspects)
			}
			// Single failure must yield a single maximal dark subtree.
			if len(suspects) != 1 {
				t.Errorf("seed %d member %d: %d suspects for one failure", seed, m, len(suspects))
			}
		}
	}
}
