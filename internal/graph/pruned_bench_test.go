package graph_test

import (
	"testing"

	"smrp/internal/graph"
	"smrp/internal/topology"
)

// BenchmarkPrunedSweep times the pruned sweep of candidate enumeration
// (RunPruned with lower = the SPF distances from node 0 and budget = 1.5 ×
// the joiner's own distance, the ellipse a join's delay bound draws) from
// joiners taken in turn, on the flat FlatMegascale(8192) plane and on an
// inner domain view of a megascale hierarchy (degree about 46, with its
// children's gateways), and reports the nodes it settles per second: the
// edge store's read rate, which its layout sets.
func BenchmarkPrunedSweep(b *testing.B) {
	flat, _, err := topology.FlatMegascale(8192, 2005)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := topology.GenerateMegascale(topology.MegascaleConfig{TargetNodes: 2000}, 2005)
	if err != nil {
		b.Fatal(err)
	}
	d := &topo.Domains[1]
	gateways := make([]graph.NodeID, len(d.Children))
	for j, c := range d.Children {
		gateways[j] = topo.Domains[c].Gateway
	}
	domain, _, err := topo.Graph.View(d.Nodes[0], len(d.Nodes), gateways)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"flat8192", flat}, {"domain", domain}} {
		b.Run(c.name, func(b *testing.B) {
			g, n := c.g, c.g.NumNodes()
			lower := g.Dijkstra(0, nil).Dist
			s := g.NewSweep()
			defer s.Release()
			settled := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := graph.NodeID(1 + i*7919%(n-1))
				s.RunPruned(j, nil, nil, lower, 1.5*lower[j], graph.Invalid, 0)
				settled += s.SettledCount()
			}
			b.ReportMetric(float64(settled)/b.Elapsed().Seconds(), "settled/s")
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
			b.ReportMetric(g.AvgDegree(), "degree")
		})
	}
}
