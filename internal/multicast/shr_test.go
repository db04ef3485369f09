package multicast_test

import (
	"testing"

	"smrp/internal/core"
	"smrp/internal/graph"
	"smrp/internal/multicast"
)

// shrGraph is Figure 1's graph with two more links, one to a fifth router:
//
//	S(0)-A(1):1  S-B(2):4  A-C(3):2  A-D(4):1  C-D:2  B-D:3  D-E(5):1  S-D:5
func shrGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.New(6)
	for _, e := range [][3]float64{{0, 1, 1}, {0, 2, 4}, {1, 3, 2}, {1, 4, 1}, {3, 4, 2}, {2, 4, 3}, {4, 5, 1}, {0, 4, 5}} {
		if err := b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSHRColumn drives every kind of tree mutation on both backends and
// holds the SHR column to ComputeSHR after each one, counting the writes
// RepairSHR makes: only values that change are written, and a slot keeps its
// last value while its node is off the tree.
func TestSHRColumn(t *testing.T) {
	type step struct {
		what   string
		do     func(*multicast.Tree) error
		writes int
	}
	graft := func(p graph.Path, member bool) func(*multicast.Tree) error {
		return func(tr *multicast.Tree) error { return tr.Graft(p, member) }
	}
	// fig1 builds S→A→{C, D} with members C and D: SHR A=2, C=3, D=3.
	fig1 := []step{
		{"graft S→A→C", graft(graph.Path{0, 1, 3}, true), 2},
		{"graft A→D", graft(graph.Path{1, 4}, true), 3},
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"member grafts", fig1},
		{"relay-only graft", append(fig1[:2:2],
			step{"graft relay D→E", graft(graph.Path{4, 5}, false), 1})},
		{"relay becomes member in place", append(fig1[:2:2],
			step{"A joins", graft(graph.Path{1}, true), 3})},
		{"leave prunes", append(fig1[:2:2],
			step{"C leaves", func(tr *multicast.Tree) error { return tr.Leave(3) }, 2})},
		{"reroute onto the source", append(fig1[:2:2],
			step{"D to S→D", func(tr *multicast.Tree) error { return tr.Reroute(4, graph.Path{0, 4}) }, 3})},
		{"reroute of a source child below another branch", []step{
			{"graft S→A→C", graft(graph.Path{0, 1, 3}, true), 2},
			{"graft S→B", graft(graph.Path{0, 2}, true), 1},
			{"A to B→D→A", func(tr *multicast.Tree) error { return tr.Reroute(1, graph.Path{2, 4, 1}) }, 4},
		}},
		// D's slot still holds 2 from its first stay when the reroute hangs
		// A below it. A's old branch (its own) is repaired first, from that
		// stale value, then again inside B's: A and C are written twice.
		{"reroute of a source child below a stale slot", []step{
			{"graft S→A→D", graft(graph.Path{0, 1, 4}, true), 2},
			{"D leaves, A is pruned", func(tr *multicast.Tree) error { return tr.Leave(4) }, 0},
			{"graft S→B", graft(graph.Path{0, 2}, true), 1},
			{"graft S→A→C", graft(graph.Path{0, 1, 3}, true), 1}, // A's slot still reads 1
			{"A to B→D→A", func(tr *multicast.Tree) error { return tr.Reroute(1, graph.Path{2, 4, 1}) }, 6},
		}},
		{"detach of a source child", append(fig1[:2:2],
			step{"graft S→B", graft(graph.Path{0, 2}, true), 1},
			step{"detach A", func(tr *multicast.Tree) error { _, err := tr.DetachSubtree(1, nil); return err }, 0})},
		{"detach below a relay, then prune", append(fig1[:2:2],
			step{"detach C", func(tr *multicast.Tree) error { _, err := tr.DetachSubtree(3, nil); return err }, 2},
			step{"prune from A", func(tr *multicast.Tree) error { tr.PruneFrom([]graph.NodeID{1}); return nil }, 0})},
		{"regraft at the same SHR", append(fig1[:2:2],
			step{"D leaves", func(tr *multicast.Tree) error { return tr.Leave(4) }, 2},
			step{"D regrafts", graft(graph.Path{1, 4}, true), 2})}, // A and C; D's slot still reads 3
	}
	for _, backend := range []struct {
		name string
		new  func(*graph.Graph, graph.NodeID) (*multicast.Tree, error)
	}{{"dense", multicast.New}, {"sparse", multicast.NewSparse}} {
		for _, c := range cases {
			t.Run(backend.name+"/"+c.name, func(t *testing.T) {
				tr, err := backend.new(shrGraph(t), 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range c.steps {
					if err := st.do(tr); err != nil {
						t.Fatalf("%s: %v", st.what, err)
					}
					// A clone carries the pending repair with it.
					clone := tr.Clone()
					if got := tr.RepairSHR(); got != st.writes {
						t.Errorf("%s: %d SHR writes, want %d", st.what, got, st.writes)
					}
					if got := clone.RepairSHR(); got != st.writes {
						t.Errorf("%s: the clone's repair wrote %d, want %d", st.what, got, st.writes)
					}
					if err := tr.Validate(); err != nil {
						t.Fatalf("%s: %v", st.what, err)
					}
					for n, want := range core.ComputeSHR(tr) {
						if got := tr.SHR(n); got != want {
							t.Errorf("%s: SHR(%d) = %d, ComputeSHR %d", st.what, n, got, want)
						}
						if got := clone.SHR(n); got != want {
							t.Errorf("%s: the clone's SHR(%d) = %d, ComputeSHR %d", st.what, n, got, want)
						}
					}
					if got := tr.RepairSHR(); got != 0 {
						t.Errorf("%s: a second repair wrote %d", st.what, got)
					}
				}
			})
		}
	}
}

// TestSHRReadRepairs: a read never sees a stale value, with or without an
// explicit repair before it.
func TestSHRReadRepairs(t *testing.T) {
	tr, err := multicast.NewSparse(shrGraph(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Graft(graph.Path{0, 1, 3}, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.Graft(graph.Path{1, 4}, true); err != nil {
		t.Fatal(err)
	}
	if got := tr.SHR(3); got != 3 {
		t.Errorf("SHR(C) = %d before any repair, want 3", got)
	}
	if got := tr.RepairSHR(); got != 0 {
		t.Errorf("the read repaired; a repair after it wrote %d", got)
	}
}
