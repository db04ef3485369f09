package graph

import (
	"fmt"
	"slices"
)

// View returns the subgraph of g induced by the ID range [base, base+n) and
// the nodes in gateways, without copying g: local node i < n is g's node
// base+i, local node n+j is gateways[j], and the rows are the induced
// subgraph's in frozen order. A row whose every arc stays in the range is
// g's own, a span of g's block. The others (a row losing an arc that leaves
// the view or holding one to a gateway, and the gateways' own) are private,
// filtered rows in one block of the view's, which store a far end at its
// local ID + base: every row of the view reads local = to − base. The view
// carries an SPF cache of its own, empty. g must be an ordinary graph, not a
// view.
func (g *Graph) View(base NodeID, n int, gateways []NodeID) (*Graph, *NodeMap, error) {
	if base < 0 || n < 0 || int(base)+n > len(g.lo) || slices.ContainsFunc(gateways, func(v NodeID) bool { return !g.valid(v) }) {
		return nil, nil, fmt.Errorf("view of [%d, %d) and %v: %w", base, int(base)+n, gateways, ErrUnknownNode)
	}
	nm := &NodeMap{base: base, n: n, gateways: gateways}
	for j, gw := range gateways {
		if l, _ := nm.ToSub(gw); l != NodeID(n+j) {
			return nil, nil, fmt.Errorf("view: gateway %d inside the range or listed twice", gw)
		}
	}
	rows := n + len(gateways)
	v := &Graph{lo: make([]int32, rows), hi: make([]int32, rows), to: g.to, w: g.w, pos: g.pos, base: int32(base), ids: nm}
	first, last := int32(base), int32(base)+int32(n)
	outside := func(t int32) bool { return t < first || t >= last }
	// Alias the rows that stay in the range and count the private rows'
	// arcs, then fill and sort the private rows in a block of that size.
	owned := 0
	for i := range rows {
		full, _ := nm.ToFull(NodeID(i))
		to, _ := g.arcs(full)
		if i < n && !slices.ContainsFunc(to, outside) {
			v.lo[i], v.hi[i] = g.lo[full], g.hi[full]
			v.edges += len(to)
			continue
		}
		v.lo[i] = -1 // private, filled below
		for _, t := range to {
			if _, ok := nm.ToSub(NodeID(t)); ok {
				owned++
			}
		}
	}
	v.ownTo, v.ownW = make([]int32, owned), make([]float64, owned)
	k := 0
	for i := range rows {
		if v.lo[i] >= 0 {
			continue
		}
		full, _ := nm.ToFull(NodeID(i))
		to, w := g.arcs(full)
		start := k
		for j, t := range to {
			if l, ok := nm.ToSub(NodeID(t)); ok {
				v.ownTo[k], v.ownW[k] = int32(l)+v.base, w[j]
				k++
			}
		}
		sortRow(v.ownTo[start:k], v.ownW[start:k])
		v.lo[i], v.hi[i] = ^int32(start), ^int32(k)
	}
	v.edges = (v.edges + owned) / 2
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
