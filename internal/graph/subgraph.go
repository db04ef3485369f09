package graph

import "fmt"

// Subgraph extracts the induced subgraph over the given node subset. Nodes
// are renumbered densely in the order given; the returned NodeMap translates
// between the two ID spaces. Duplicate or unknown nodes are rejected.
func (g *Graph) Subgraph(nodes []NodeID) (*Graph, *NodeMap, error) {
	nm := &NodeMap{
		toSub:  make(map[NodeID]NodeID, len(nodes)),
		toFull: make([]NodeID, 0, len(nodes)),
	}
	sub := New(len(nodes))
	for i, n := range nodes {
		if !g.valid(n) {
			return nil, nil, fmt.Errorf("subgraph: unknown node %d", n)
		}
		if _, dup := nm.toSub[n]; dup {
			return nil, nil, fmt.Errorf("subgraph: duplicate node %d", n)
		}
		nm.toSub[n] = NodeID(i)
		nm.toFull = append(nm.toFull, n)
		sub.SetPos(NodeID(i), g.Pos(n))
	}
	for _, n := range nodes {
		for _, arc := range g.adj[n] {
			peer, ok := nm.toSub[arc.To]
			if !ok {
				continue
			}
			a, b := nm.toSub[n], peer
			if a < b { // add each undirected edge once
				if err := sub.AddEdge(a, b, arc.Weight); err != nil {
					return nil, nil, fmt.Errorf("subgraph: %w", err)
				}
			}
		}
	}
	return sub, nm, nil
}

// NodeMap translates node IDs between a graph and one of its subgraphs.
type NodeMap struct {
	toSub  map[NodeID]NodeID
	toFull []NodeID
}

// ToSub maps a full-graph node into the subgraph ID space.
func (m *NodeMap) ToSub(n NodeID) (NodeID, bool) {
	s, ok := m.toSub[n]
	return s, ok
}

// ToFull maps a subgraph node back into the full-graph ID space.
func (m *NodeMap) ToFull(n NodeID) (NodeID, bool) {
	if n < 0 || int(n) >= len(m.toFull) {
		return Invalid, false
	}
	return m.toFull[n], true
}
