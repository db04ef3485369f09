package graph

// AddNode appends a node at position p and returns its ID, so tests can
// grow a graph between edges. It panics on a frozen graph.
func (g *Graph) AddNode(p Point) NodeID {
	if g.frozen {
		panic(ErrFrozen)
	}
	g.adj = append(g.adj, nil)
	g.pos = append(g.pos, p)
	g.version++
	return NodeID(len(g.adj) - 1)
}

// Parent returns n's predecessor on its shortest path (Invalid at the source
// or when unreached).
func (s *Sweep) Parent(n NodeID) NodeID {
	if !s.Reached(n) {
		return Invalid
	}
	return s.parent[n]
}
