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
	var out [][]NodeID
	var stack []NodeID
	for start := 0; start < n; start++ {
		s := NodeID(start)
		if comp[start] != -1 || mask.NodeBlocked(s) {
			continue
		}
		id := len(out)
		comp[start] = id
		members := []NodeID{s}
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, arc := range g.adj[u] {
				v := arc.To
				if comp[v] != -1 || mask.NodeBlocked(v) || mask.EdgeBlocked(u, v) {
					continue
				}
				comp[v] = id
				members = append(members, v)
				stack = append(stack, v)
			}
		}
		sortNodeIDs(members)
		out = append(out, members)
	}
	return out
}

// Connected reports whether the graph minus the mask is connected over its
// unmasked nodes (an empty graph counts as connected).
func (g *Graph) Connected(mask *Mask) bool {
	return len(g.Components(mask)) <= 1
}

// sortNodeIDs sorts a NodeID slice in ascending order (insertion sort: the
// slices here are small and this avoids an interface allocation per call).
func sortNodeIDs(s []NodeID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
