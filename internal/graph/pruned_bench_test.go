package graph_test

import (
	"math/rand"
	"testing"

	"smrp/internal/graph"
	"smrp/internal/topology"
)

// BenchmarkPrunedSweep times the pruned sweep of candidate enumeration
// (RunPruned with lower = the SPF distances from node 0 and budget = 1.5 ×
// the joiner's own distance, the ellipse a join's delay bound draws) from
// joiners taken in turn, and reports the nodes it settles per second and the
// arcs it scans per run. flat8192 and domain run it bare, to exhaustion, on
// the flat FlatMegascale(8192) plane and on an inner domain view of a
// megascale hierarchy (degree about 46, with its children's gateways): the
// edge store's read rate, which its layout sets. join runs it on the plane as
// selectBySweep does: the nodes of a tree of node 0's shortest paths to 64
// members absorb, node 0 is the goal, stopped at within the budget, and the
// joiners are the nodes off the tree.
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
	spt := flat.Dijkstra(0, nil)
	onTree := make([]bool, flat.NumNodes())
	onTree[0] = true
	rng := rand.New(rand.NewSource(2005))
	for range 64 {
		for v := graph.NodeID(1 + rng.Intn(flat.NumNodes()-1)); v != graph.Invalid && !onTree[v]; v = spt.Parent(v) {
			onTree[v] = true
		}
	}
	var offTree []graph.NodeID
	for v, on := range onTree {
		if !on && spt.Reachable(graph.NodeID(v)) {
			offTree = append(offTree, graph.NodeID(v))
		}
	}
	absorbing := func(v graph.NodeID) bool { return onTree[v] }
	for _, c := range []struct {
		name      string
		g         *graph.Graph
		absorbing func(graph.NodeID) bool
		goal      graph.NodeID
	}{{"flat8192", flat, nil, graph.Invalid}, {"domain", domain, nil, graph.Invalid}, {"join", flat, absorbing, 0}} {
		b.Run(c.name, func(b *testing.B) {
			g, n := c.g, c.g.NumNodes()
			lower := g.Dijkstra(0, nil).Dist
			s := g.NewSweep()
			defer s.Release()
			settled, arcs := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := graph.NodeID(1 + i*7919%(n-1))
				if c.absorbing != nil {
					j = offTree[i*7919%len(offTree)]
				}
				budget := 1.5 * lower[j]
				s.RunPruned(j, nil, c.absorbing, lower, budget, c.goal, budget)
				settled += s.SettledCount()
				arcs += s.ArcsScanned()
			}
			b.ReportMetric(float64(settled)/b.Elapsed().Seconds(), "settled/s")
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
			b.ReportMetric(float64(arcs)/float64(b.N), "arcs/op")
			b.ReportMetric(g.AvgDegree(), "degree")
		})
	}
}
