package graph

// Components returns the connected components of g (minus the mask) as
// slices of node IDs. Masked-out nodes are omitted entirely. Components and
// their members are in ascending ID order, so output is deterministic.
func (g *Graph) Components(mask *Mask) [][]NodeID {
	n := g.NumNodes()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	// Label each component by a DFS from its lowest node, counting members;
	// then one ascending pass over the IDs lists each component's members in
	// order, all carved from one backing array.
	var sizes []int
	var stack []NodeID
	for start := 0; start < n; start++ {
		s := NodeID(start)
		if comp[start] != -1 || mask.NodeBlocked(s) {
			continue
		}
		id := len(sizes)
		comp[start] = id
		size := 1
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			to, _ := g.arcs(u)
			for _, t := range to {
				v := NodeID(t - g.base)
				if comp[v] != -1 || mask.NodeBlocked(v) || mask.EdgeBlocked(u, v) {
					continue
				}
				comp[v] = id
				size++
				stack = append(stack, v)
			}
		}
		sizes = append(sizes, size)
	}
	out := make([][]NodeID, len(sizes))
	backing := make([]NodeID, n)
	off := 0
	for id, size := range sizes {
		out[id] = backing[off : off : off+size]
		off += size
	}
	for v, id := range comp {
		if id >= 0 {
			out[id] = append(out[id], NodeID(v))
		}
	}
	return out
}

// Connected reports whether the graph minus the mask is connected over its
// unmasked nodes (an empty graph counts as connected).
func (g *Graph) Connected(mask *Mask) bool {
	return len(g.Components(mask)) <= 1
}
