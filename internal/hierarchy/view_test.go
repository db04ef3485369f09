package hierarchy

import (
	"errors"
	"slices"
	"testing"

	"smrp/internal/core"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// inducedCopy is a domain graph as domain sessions once built it: the
// subgraph of g induced by nodes, copied into a graph of its own numbered in
// the order given, then frozen. It is the reference the domain views are
// held to.
func inducedCopy(tb testing.TB, g *graph.Graph, nodes []graph.NodeID) *graph.Graph {
	tb.Helper()
	sub := graph.New(len(nodes))
	local := make(map[graph.NodeID]graph.NodeID, len(nodes))
	for i, n := range nodes {
		local[n] = graph.NodeID(i)
		sub.SetPos(graph.NodeID(i), g.Pos(n))
	}
	for i, n := range nodes {
		for _, a := range g.Neighbors(n) {
			if j, ok := local[a.To]; ok && graph.NodeID(i) < j {
				if err := sub.AddEdge(graph.NodeID(i), j, a.Weight); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return sub.Freeze()
}

// sessionNodes lists domain i's session graph in full IDs: the domain's
// nodes, then its children's gateways.
func sessionNodes(t *topology.NLevelTopology, i int) []graph.NodeID {
	nodes := slices.Clone(t.Domains[i].Nodes)
	for _, c := range t.Domains[i].Children {
		nodes = append(nodes, t.Domains[c].Gateway)
	}
	return nodes
}

// TestDomainViewMatchesInducedCopy holds every domain session's graph — a
// view of the one frozen topology — to the induced copy of the domain that
// sessions used to route over, on a transit–stub, a generated 3-level and a
// megascale hierarchy: the same IDs both ways, node and edge counts, edge
// list, every row (far end, weight and order), degree and position, and
// EdgeWeight on every arc and on non-arcs.
func TestDomainViewMatchesInducedCopy(t *testing.T) {
	ts, tsSrc := buildTS(t, 11)
	nt, ntSrc := buildNLevel(t, 11)
	mega, err := topology.GenerateMegascale(topology.MegascaleConfig{TargetNodes: 2000}, 2005)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		topo *topology.NLevelTopology
		src  graph.NodeID
	}{
		{"transit-stub", ts, tsSrc},
		{"3-level", nt, ntSrc},
		{"megascale", mega, 1},
	} {
		s, err := NewNLevel(c.topo, c.src, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		views := 0
		for i, ds := range s.sessions {
			nodes := sessionNodes(c.topo, i)
			ref := inducedCopy(t, c.topo.Graph, nodes)
			v := ds.session.Graph()
			for k, full := range nodes {
				if got, ok := ds.nm.ToFull(graph.NodeID(k)); !ok || got != full {
					t.Fatalf("%s domain %d: ToFull(%d) = %d,%v, want %d", c.name, i, k, got, ok, full)
				}
				if got, ok := ds.nm.ToSub(full); !ok || got != graph.NodeID(k) {
					t.Fatalf("%s domain %d: ToSub(%d) = %d,%v, want %d", c.name, i, full, got, ok, k)
				}
			}
			if v.NumNodes() != ref.NumNodes() || v.NumEdges() != ref.NumEdges() || !slices.Equal(v.Edges(), ref.Edges()) {
				t.Fatalf("%s domain %d: %d nodes %d edges, induced copy %d nodes %d edges (or edge lists differ)",
					c.name, i, v.NumNodes(), v.NumEdges(), ref.NumNodes(), ref.NumEdges())
			}
			n := graph.NodeID(v.NumNodes())
			for u := graph.NodeID(0); u < n; u++ {
				row := v.Neighbors(u)
				if !slices.Equal(row, ref.Neighbors(u)) || v.Degree(u) != ref.Degree(u) || v.Pos(u) != ref.Pos(u) {
					t.Fatalf("%s domain %d node %d: row %v at %v, induced copy %v at %v",
						c.name, i, u, row, v.Pos(u), ref.Neighbors(u), ref.Pos(u))
				}
				for _, a := range row {
					if w, ok := v.EdgeWeight(a.To, u); !ok || w != a.Weight {
						t.Fatalf("%s domain %d: EdgeWeight(%d, %d) = %v,%v, want %v", c.name, i, a.To, u, w, ok, a.Weight)
					}
				}
				for _, x := range []graph.NodeID{u, (u + 1) % n, (u + n/2) % n, n, -1} {
					wv, okv := v.EdgeWeight(u, x)
					wr, okr := ref.EdgeWeight(u, x)
					if wv != wr || okv != okr {
						t.Fatalf("%s domain %d: EdgeWeight(%d, %d) = %v,%v, induced copy %v,%v", c.name, i, u, x, wv, okv, wr, okr)
					}
				}
			}
			views++
		}
		t.Logf("%s: %d domain views match their induced copies", c.name, views)
	}
}

// TestNewNLevelRefusesScatteredDomain: a domain whose nodes are not one
// ascending run of consecutive IDs has no view, and NewNLevel says so with a
// typed error instead of routing over the wrong nodes.
func TestNewNLevelRefusesScatteredDomain(t *testing.T) {
	nt, src := buildNLevel(t, 4)
	leaf := &nt.Domains[nt.Leaves()[1]]
	nodes := leaf.Nodes
	leaf.Nodes = slices.Clone(nodes)
	leaf.Nodes[0], leaf.Nodes[3] = leaf.Nodes[3], leaf.Nodes[0]
	if _, err := NewNLevel(nt, src, core.DefaultConfig()); !errors.Is(err, ErrDomainNotContiguous) {
		t.Fatalf("NewNLevel over a shuffled domain = %v, want ErrDomainNotContiguous", err)
	}
	leaf.Nodes = nodes
	if _, err := NewNLevel(nt, src, core.DefaultConfig()); err != nil {
		t.Fatalf("NewNLevel over the domain restored: %v", err)
	}
}
