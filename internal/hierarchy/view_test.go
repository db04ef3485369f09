package hierarchy

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"smrp/internal/core"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// inducedCopy is a domain graph as domain sessions once built it: the
// subgraph of g induced by nodes, copied into a graph of its own numbered in
// the order given. It is the reference the domain views are held to.
func inducedCopy(tb testing.TB, g *graph.Graph, nodes []graph.NodeID) *graph.Graph {
	tb.Helper()
	b := graph.New(len(nodes))
	local := make(map[graph.NodeID]graph.NodeID, len(nodes))
	for i, n := range nodes {
		local[n] = graph.NodeID(i)
		b.SetPos(graph.NodeID(i), g.Pos(n))
	}
	for i, n := range nodes {
		for _, a := range g.Neighbors(n) {
			if j, ok := local[a.To]; ok && graph.NodeID(i) < j {
				if err := b.AddEdge(graph.NodeID(i), j, a.Weight); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	g, err := b.Freeze()
	if err != nil {
		tb.Fatal(err)
	}
	return g
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

// rowAt returns the addresses row n of g's edge store starts at in the
// block of far ends and in the block of weights, read through reflection
// because the store is unexported. A private row (a negative bound) has
// none.
func rowAt(g *graph.Graph, n graph.NodeID) (to, w uintptr) {
	v := reflect.ValueOf(g).Elem()
	lo := v.FieldByName("lo").Index(int(n)).Int()
	if lo < 0 {
		return 0, 0
	}
	return v.FieldByName("to").Pointer() + uintptr(4*lo), v.FieldByName("w").Pointer() + uintptr(8*lo)
}

// TestDomainViewsShareTopologyRows: NewNLevel over a transit–stub topology
// builds its domain views on the topology graph's own rows, neither copying
// them nor sorting a copy: the row of every domain node whose arcs all stay
// in its domain is, in the view, the very span of far ends and weights
// t.Graph holds.
func TestDomainViewsShareTopologyRows(t *testing.T) {
	ts, src := buildTS(t, 11)
	s, err := NewNLevel(ts, src, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for i, ds := range s.sessions {
		d := &ts.Domains[i]
		lo, hi := d.Nodes[0], d.Nodes[len(d.Nodes)-1]
		v := ds.session.Graph()
		for k, full := range d.Nodes {
			if slices.ContainsFunc(ts.Graph.Neighbors(full), func(a graph.Arc) bool { return a.To < lo || a.To > hi }) {
				continue // a private, filtered row of the view
			}
			vt, vw := rowAt(v, graph.NodeID(k))
			if gt, gw := rowAt(ts.Graph, full); vt != gt || vw != gw || vt == 0 {
				t.Fatalf("domain %d: the view's row of node %d is not the topology's", i, full)
			}
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no row stays inside its domain; nothing was checked")
	}
	t.Logf("%d rows shared with the topology", shared)
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
