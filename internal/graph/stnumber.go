package graph

import (
	"errors"
	"fmt"
	"slices"
)

// ErrNotBiconnected is returned when an st-numbering is requested on a
// graph that is not biconnected (no st-numbering exists).
var ErrNotBiconnected = errors.New("graph: not biconnected")

// STNumbering computes an st-numbering of the biconnected graph g for the
// edge (s, t): a bijection num: V → {1..n} with num[s] = 1, num[t] = n, and
// every other vertex adjacent to both a lower- and a higher-numbered vertex.
// This is Tarjan's streamlined list-based algorithm (1986): DFS from s with
// (s, t) as the first tree edge, then insert each vertex into an ordered
// list before or after its DFS parent according to the sign of its
// low-point. The DFS takes each vertex's neighbours in ascending ID, so the
// numbering depends on the graph alone, not on the order its rows are stored
// in (by weight).
//
// st-numberings are the backbone of Médard et al.'s redundant trees: the
// increasing-order tree and the decreasing-order tree are internally
// vertex-disjoint, so any single failure leaves every node attached to the
// source by at least one of them.
func (g *Graph) STNumbering(s, t NodeID) (map[NodeID]int, error) {
	if !g.valid(s) || !g.valid(t) {
		return nil, fmt.Errorf("st-numbering: unknown endpoint %d/%d", s, t)
	}
	if !g.HasEdge(s, t) {
		return nil, fmt.Errorf("st-numbering: (%d, %d) is not an edge", s, t)
	}
	n := g.NumNodes()
	pre := make([]int, n)
	low := make([]NodeID, n) // the vertex realizing the low-point
	parent := make([]NodeID, n)
	for i := range pre {
		pre[i] = -1
		parent[i] = Invalid
	}

	nbrs := make([][]NodeID, n)
	for v := range nbrs {
		to, _ := g.arcs(NodeID(v))
		nbrs[v] = make([]NodeID, len(to))
		for i, t := range to {
			nbrs[v][i] = NodeID(t - g.base)
		}
		slices.Sort(nbrs[v])
	}

	// DFS from s traversing (s, t) first; record preorder and low-points
	// (as vertices, so the sign rule can look them up).
	preorder := make([]NodeID, 0, n)
	type frame struct {
		node NodeID
		idx  int
	}
	visit := func(v NodeID, par NodeID, order int) {
		pre[v] = order
		low[v] = v
		parent[v] = par
		preorder = append(preorder, v)
	}
	visit(s, Invalid, 0)
	order := 1
	visit(t, s, order)
	order++
	stack := []frame{{node: s, idx: -1}, {node: t}}
	// s's frame uses idx=-1 as a marker: its only tree edge is (s,t),
	// handled explicitly; remaining neighbors of s are back edges for low
	// computation of... they are handled as back edges from the other side.
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx < 0 {
			// The root frame: all work flows through t's subtree.
			stack = stack[:len(stack)-1]
			continue
		}
		adj := nbrs[f.node]
		advanced := false
		for f.idx < len(adj) {
			v := adj[f.idx]
			f.idx++
			if v == parent[f.node] {
				continue
			}
			if pre[v] == -1 {
				visit(v, f.node, order)
				order++
				stack = append(stack, frame{node: v})
				advanced = true
				break
			}
			if pre[v] < pre[low[f.node]] {
				low[f.node] = v
			}
		}
		if advanced {
			continue
		}
		done := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p := parent[done.node]; p != Invalid {
			if pre[low[done.node]] < pre[low[p]] {
				low[p] = low[done.node]
			}
		}
	}
	if len(preorder) != n {
		return nil, fmt.Errorf("%w: graph disconnected", ErrNotBiconnected)
	}

	// Tarjan's sign/list pass.
	const (
		minus = -1
		plus  = +1
	)
	sign := make(map[NodeID]int, n)
	sign[s] = minus
	// Doubly-linked list over node IDs.
	next := make(map[NodeID]NodeID, n)
	prev := make(map[NodeID]NodeID, n)
	next[s], prev[t] = t, s
	next[t], prev[s] = Invalid, Invalid
	insertBefore := func(v, ref NodeID) {
		p := prev[ref]
		next[v], prev[v] = ref, p
		prev[ref] = v
		if p != Invalid {
			next[p] = v
		}
	}
	insertAfter := func(v, ref NodeID) {
		nx := next[ref]
		prev[v], next[v] = ref, nx
		next[ref] = v
		if nx != Invalid {
			prev[nx] = v
		}
	}
	for _, v := range preorder {
		if v == s || v == t {
			continue
		}
		p := parent[v]
		if sign[low[v]] == minus {
			insertBefore(v, p)
			sign[p] = plus
		} else {
			insertAfter(v, p)
			sign[p] = minus
		}
	}

	// Walk the list from s assigning numbers.
	num := make(map[NodeID]int, n)
	i := 1
	for cur := s; cur != Invalid; cur = next[cur] {
		num[cur] = i
		i++
	}
	if len(num) != n || num[s] != 1 || num[t] != n {
		return nil, fmt.Errorf("%w: list construction failed (s=%d t=%d assigned=%d)",
			ErrNotBiconnected, num[s], num[t], len(num))
	}
	// Verify the st-property; it fails exactly when g was not biconnected.
	// The list numbered every node, so ascending IDs visit them all.
	for v := NodeID(0); int(v) < n; v++ {
		if v == s || v == t {
			continue
		}
		nv := num[v]
		lower, higher := false, false
		to, _ := g.arcs(NodeID(v))
		for _, t := range to {
			if num[NodeID(t-g.base)] < nv {
				lower = true
			}
			if num[NodeID(t-g.base)] > nv {
				higher = true
			}
		}
		if !lower || !higher {
			return nil, fmt.Errorf("%w: vertex %d violates the st-property", ErrNotBiconnected, v)
		}
	}
	return num, nil
}
