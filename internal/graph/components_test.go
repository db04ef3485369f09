package graph_test

import (
	"math/rand"
	"slices"
	"testing"

	"smrp/internal/graph"
	"smrp/internal/topology"
)

// componentsReference is Graph.Components as it stood before members were
// listed by one pass over the IDs: a DFS per component whose members are then
// insertion-sorted — quadratic in the size of a component.
func componentsReference(g *graph.Graph, mask *graph.Mask) [][]graph.NodeID {
	n := g.NumNodes()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]graph.NodeID
	var stack []graph.NodeID
	for start := 0; start < n; start++ {
		s := graph.NodeID(start)
		if comp[start] != -1 || mask.NodeBlocked(s) {
			continue
		}
		id := len(out)
		comp[start] = id
		members := []graph.NodeID{s}
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, arc := range g.Neighbors(u) {
				v := arc.To
				if comp[v] != -1 || mask.NodeBlocked(v) || mask.EdgeBlocked(u, v) {
					continue
				}
				comp[v] = id
				members = append(members, v)
				stack = append(stack, v)
			}
		}
		for i := 1; i < len(members); i++ {
			for j := i; j > 0 && members[j] < members[j-1]; j-- {
				members[j], members[j-1] = members[j-1], members[j]
			}
		}
		out = append(out, members)
	}
	return out
}

// TestComponentsMatchReference holds Components to the insertion-sorting loop
// it replaced — the same components, in the same order, with the same members
// in the same order — on sparse Waxman graphs of several components, under no
// mask and under random node and link masks, and on an 8 192-node flat
// megascale plane, one component of which the old loop sorted quadratically.
func TestComponentsMatchReference(t *testing.T) {
	compare := func(what string, g *graph.Graph, mask *graph.Mask) int {
		t.Helper()
		got, want := g.Components(mask), componentsReference(g, mask)
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%s: components\n  %v\nreference\n  %v", what, got, want)
		}
		return len(got)
	}
	multi := 0
	for seed := uint64(1); seed <= 30; seed++ {
		g, err := topology.Waxman(topology.WaxmanConfig{N: 20 + int(seed)*4, Alpha: 0.1, Beta: 0.2}, topology.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(seed)))
		edges := g.Edges()
		mask := graph.NewMask()
		if compare("unmasked", g, nil) > 1 {
			multi++
		}
		for i := 0; i < 6; i++ {
			if r.Intn(2) == 0 || len(edges) == 0 {
				mask.BlockNode(graph.NodeID(r.Intn(g.NumNodes())))
			} else {
				e := edges[r.Intn(len(edges))]
				mask.BlockEdge(e.A, e.B)
			}
			compare("masked", g, mask)
		}
	}
	if multi == 0 {
		t.Fatal("no graph had more than one component")
	}
	g, _, err := topology.FlatMegascale(8192, 7)
	if err != nil {
		t.Fatal(err)
	}
	if k := compare("flat megascale", g, nil); k != 1 {
		t.Fatalf("flat megascale plane has %d components, want 1", k)
	}
	compare("flat megascale, masked", g, graph.NewMask().BlockNodes(5, 17, 4000, 8000))
}
