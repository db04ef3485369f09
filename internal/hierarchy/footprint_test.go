package hierarchy

import (
	"errors"
	"runtime"
	"testing"

	"smrp/internal/core"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// TestGraphFootprintRatchet pins the graph's memory accounting to its one
// edge store, the adjacency rows: a 24 B row header per node, 16 B per arc
// (two per edge) and 16 B per position, exactly, on the flat megascale plane
// and on a hierarchy domain's frozen subgraph. A second edge index would add
// a term and fail it.
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
	// Domain 0 is the root domain: its subgraph carries its children's
	// gateways and their uplinks too.
	for name, g := range map[string]*graph.Graph{"flat megascale": flat, "domain 0 subgraph": s.sessions[0].session.Graph()} {
		if err := g.AddEdge(0, 1, 1); !errors.Is(err, graph.ErrFrozen) {
			t.Fatalf("%s is not frozen", name)
		}
		n, e := int64(g.NumNodes()), int64(g.NumEdges())
		if want, got := 24*n+16*2*e+16*n, g.MemoryFootprint(); got != want {
			t.Errorf("%s (%d nodes, %d edges): footprint %d B, want %d B", name, n, e, got, want)
		}
	}
}

// TestHierarchyHeapMatchesFootprint holds what a built 30 000-node hierarchy
// occupies on the heap to what its deterministic accounting says it holds:
// the full graph's and every domain subgraph's MemoryFootprint plus the
// domain sessions' standing state. Measured after two collections, the heap
// growth from generating the topology and building the sessions may exceed
// that sum by at most 20 %: a second resident copy of the arcs — the sweep
// view the rows once had beside them, about as large as the rows — would
// put it near twice the sum.
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
