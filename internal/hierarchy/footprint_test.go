package hierarchy

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"smrp/internal/core"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// TestGraphFootprintRatchet pins the graph's memory accounting to its one
// edge store, the adjacency rows. On the flat megascale plane that is a 24 B
// row header per node, 16 B per arc (two per edge) and 16 B per position,
// exactly. A hierarchy domain's view owns only its row headers and the arcs
// of its private rows: the rows of nodes with an arc leaving the domain's ID
// range, and the children's gateways'. A second edge index, or a view that
// copied its parent's rows, would add a term and fail it.
func TestGraphFootprintRatchet(t *testing.T) {
	flat, _, err := topology.FlatMegascale(8192, 2005)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.GenerateMegascale(topology.MegascaleConfig{TargetNodes: 2000}, 2005)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewNLevel(topo, 0, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n, e := int64(flat.NumNodes()), int64(flat.NumEdges())
	if want, got := 24*n+16*2*e+16*n, flat.MemoryFootprint(); got != want {
		t.Errorf("flat megascale (%d nodes, %d edges): footprint %d B, want %d B", n, e, got, want)
	}
	// Domain 0 is the root domain: its view carries its children's gateways
	// and their uplinks too.
	v, d := s.sessions[0].session.Graph(), &topo.Domains[0]
	if err := v.AddEdge(0, 1, 1); !errors.Is(err, graph.ErrFrozen) {
		t.Fatal("the domain 0 view is not frozen")
	}
	lo, hi := d.Nodes[0], d.Nodes[len(d.Nodes)-1]
	var private int64
	for i := 0; i < v.NumNodes(); i++ {
		leaves := i >= len(d.Nodes) || slices.ContainsFunc(topo.Graph.Neighbors(d.Nodes[i]), func(a graph.Arc) bool {
			return a.To < lo || a.To > hi
		})
		if leaves {
			private += int64(v.Degree(graph.NodeID(i)))
		}
	}
	if private == 0 || private >= 2*int64(v.NumEdges()) {
		t.Fatalf("domain 0 view: %d private arcs of %d", private, 2*v.NumEdges())
	}
	if want, got := 24*int64(v.NumNodes())+16*private, v.MemoryFootprint(); got != want {
		t.Errorf("domain 0 view (%d nodes, %d private arcs): footprint %d B, want %d B", v.NumNodes(), private, got, want)
	}
}

// TestHierarchyHeapMatchesFootprint holds what a built 30 000-node hierarchy
// occupies on the heap to what its deterministic accounting says it holds:
// the full graph's and every domain view's MemoryFootprint plus the domain
// sessions' standing state. Measured after two collections, the heap growth
// from generating the topology and building the sessions may exceed that sum
// by at most 20 %. The views count only what they own, so this holds them to
// aliasing the graph's rows: a second resident copy of the arcs — an induced
// copy per domain, or the sweep view the rows once had beside them, about as
// large as the rows — would put the ratio near 1.9.
func TestHierarchyHeapMatchesFootprint(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	topo, err := topology.GenerateMegascale(topology.MegascaleConfig{TargetNodes: 30000}, 2005)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewNLevel(topo, 0, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	grown := heap() - before

	accounted := topo.Graph.MemoryFootprint() + s.SubgraphBytes()
	for _, ds := range s.sessions {
		accounted += ds.session.MemoryFootprint()
	}
	ratio := float64(grown) / float64(accounted)
	t.Logf("heap grew %.1f MB, accounted %.1f MB: ratio %.2f", float64(grown)/1e6, float64(accounted)/1e6, ratio)
	if ratio > 1.2 {
		t.Errorf("heap grew %d B for %d B of accounted state (ratio %.2f, want at most 1.2)", grown, accounted, ratio)
	}
	runtime.KeepAlive(topo)
	runtime.KeepAlive(s)
}
