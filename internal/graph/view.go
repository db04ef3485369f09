package graph

import (
	"fmt"
	"slices"
)

// View returns the subgraph of g induced by the ID range [base, base+n) and
// the nodes in gateways, without copying g: local node i < n is g's node
// base+i, local node n+j is gateways[j], and the rows are the induced
// subgraph's in frozen order. A row whose every arc stays in the range is
// g's own, aliased. The others (a row losing an arc that leaves
// the view or holding one to a gateway, and the gateways' own) are private,
// filtered copies, which store a far end at its local ID + base: every row of
// the view reads local = To − base. The view carries an SPF cache of its own,
// empty.
func (g *Graph) View(base NodeID, n int, gateways []NodeID) (*Graph, *NodeMap, error) {
	if base < 0 || n < 0 || int(base)+n > len(g.adj) || slices.ContainsFunc(gateways, func(v NodeID) bool { return !g.valid(v) }) {
		return nil, nil, fmt.Errorf("view of [%d, %d) and %v: %w", base, int(base)+n, gateways, ErrUnknownNode)
	}
	nm := &NodeMap{base: base, n: n, gateways: gateways}
	for j, gw := range gateways {
		if l, _ := nm.ToSub(gw); l != NodeID(n+j) {
			return nil, nil, fmt.Errorf("view: gateway %d inside the range or listed twice", gw)
		}
	}
	v := &Graph{adj: make([][]Arc, n+len(gateways)), pos: g.pos, base: base, ids: nm}
	outside := func(a Arc) bool { return a.To < base || a.To >= base+NodeID(n) }
	var private [][]Arc
	var at []int
	for i := range v.adj {
		full, _ := nm.ToFull(NodeID(i))
		if row := g.adj[full]; i < n && !slices.ContainsFunc(row, outside) {
			v.adj[i] = row
			v.edges += len(row)
			continue
		}
		var own []Arc
		for _, a := range g.adj[full] {
			if l, ok := nm.ToSub(a.To); ok {
				own = append(own, Arc{To: l + base, Weight: a.Weight})
			}
		}
		sortRow(own)
		private, at = append(private, own), append(at, i)
	}
	for k, row := range packRows(private) {
		v.adj[at[k]] = row
		v.owned += len(row)
	}
	v.edges = (v.edges + v.owned) / 2
	v.spf = NewSPFCache(v, 0)
	return v, nm, nil
}

// NodeMap translates node IDs between a graph and a view of it.
type NodeMap struct {
	base     NodeID
	n        int
	gateways []NodeID
}

// ToSub maps a full-graph node into the view's ID space.
func (m *NodeMap) ToSub(n NodeID) (NodeID, bool) {
	if n >= m.base && n < m.base+NodeID(m.n) {
		return n - m.base, true
	}
	if j := slices.Index(m.gateways, n); j >= 0 {
		return NodeID(m.n + j), true
	}
	return Invalid, false
}

// ToFull maps a view node back into the full-graph ID space.
func (m *NodeMap) ToFull(n NodeID) (NodeID, bool) {
	switch {
	case n >= 0 && int(n) < m.n:
		return m.base + n, true
	case int(n) >= m.n && int(n) < m.n+len(m.gateways):
		return m.gateways[int(n)-m.n], true
	}
	return Invalid, false
}

// packRows copies rows onto one flat backing array (one allocation).
func packRows(rows [][]Arc) [][]Arc {
	total := 0
	for _, arcs := range rows {
		total += len(arcs)
	}
	backing := make([]Arc, 0, total)
	packed := make([][]Arc, len(rows))
	for i, arcs := range rows {
		start := len(backing)
		backing = append(backing, arcs...)
		packed[i] = backing[start:len(backing):len(backing)]
	}
	return packed
}
