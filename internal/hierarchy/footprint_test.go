package hierarchy

import (
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
		if !g.Frozen() {
			t.Fatalf("%s is not frozen", name)
		}
		n, e := int64(g.NumNodes()), int64(g.NumEdges())
		if want, got := 24*n+16*2*e+16*n, g.MemoryFootprint(); got != want {
			t.Errorf("%s (%d nodes, %d edges): footprint %d B, want %d B", name, n, e, got, want)
		}
	}
}
