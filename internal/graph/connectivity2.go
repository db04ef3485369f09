package graph

// ArticulationPoints returns the cut vertices of g minus the mask, in
// ascending order, using Tarjan's low-point rules: a non-root vertex p is
// an articulation point if some DFS child c has low[c] ≥ disc[p]; a DFS
// root is one if it has two or more DFS children.
func (g *Graph) ArticulationPoints(mask *Mask) []NodeID {
	n := g.NumNodes()
	disc := make([]int, n)
	low := make([]int, n)
	rootKids := make([]int, n)
	isArt := make([]bool, n)
	for i := range disc {
		disc[i] = -1
	}
	timer := 0
	type frame struct {
		node, parent NodeID
		idx          int
	}
	for start := 0; start < n; start++ {
		s := NodeID(start)
		if disc[start] != -1 || mask.NodeBlocked(s) {
			continue
		}
		stack := []frame{{node: s, parent: Invalid}}
		disc[start], low[start] = timer, timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			adj := g.adj[f.node]
			advanced := false
			for f.idx < len(adj) {
				arc := adj[f.idx]
				f.idx++
				v := arc.To - g.base
				if v == f.parent || mask.NodeBlocked(v) || mask.EdgeBlocked(f.node, v) {
					continue
				}
				if disc[v] == -1 {
					disc[v], low[v] = timer, timer
					timer++
					stack = append(stack, frame{node: v, parent: f.node})
					advanced = true
					break
				}
				if disc[v] < low[f.node] {
					low[f.node] = disc[v]
				}
			}
			if advanced {
				continue
			}
			done := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			p := done.parent
			if p == Invalid {
				continue
			}
			if low[done.node] < low[p] {
				low[p] = low[done.node]
			}
			if p == s {
				rootKids[s]++
			} else if low[done.node] >= disc[p] {
				isArt[p] = true
			}
		}
		if rootKids[s] >= 2 {
			isArt[s] = true
		}
	}
	var out []NodeID
	for i, a := range isArt {
		if a {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Biconnected reports whether g minus the mask is connected and has no
// articulation points (and at least 3 nodes, per the usual convention that
// a single edge is not biconnected).
func (g *Graph) Biconnected(mask *Mask) bool {
	active := 0
	for i := 0; i < g.NumNodes(); i++ {
		if !mask.NodeBlocked(NodeID(i)) {
			active++
		}
	}
	if active < 3 {
		return false
	}
	return g.Connected(mask) && len(g.ArticulationPoints(mask)) == 0
}
