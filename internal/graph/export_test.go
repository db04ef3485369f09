package graph

// AddNode appends a node at position p and returns its ID, so tests can
// grow a graph between edges.
func (b *Builder) AddNode(p Point) NodeID {
	end := int32(len(b.g.to))
	b.g.lo, b.g.hi, b.end = append(b.g.lo, end), append(b.g.hi, end), append(b.end, end)
	b.g.pos = append(b.g.pos, p)
	return NodeID(len(b.g.lo) - 1)
}

// Parent returns n's predecessor on its shortest path (Invalid at the source
// or when unreached).
func (s *Sweep) Parent(n NodeID) NodeID {
	if !s.Reached(n) {
		return Invalid
	}
	return s.parent[n]
}

// HasEdge reports whether the edge (u, v) has been inserted, so tests can
// draw random edge sets without duplicates.
func (b *Builder) HasEdge(u, v NodeID) bool { return b.g.HasEdge(u, v) }
