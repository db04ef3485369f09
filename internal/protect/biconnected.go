package protect

import (
	"errors"
	"fmt"
	"slices"

	"smrp/internal/graph"
)

// ErrNotBiconnected is returned when a graph cannot carry redundant trees:
// it has fewer than 3 nodes, is disconnected, or has a cut vertex, so some
// single failure partitions it and no st-numbering exists.
var ErrNotBiconnected = errors.New("protect: graph is not biconnected")

// adjacency holds every node's neighbours in ascending ID, the order both
// DFSes below take them in, so what they compute depends on the graph alone,
// not on the order its rows are stored in (by weight).
type adjacency [][]graph.NodeID

func newAdjacency(g *graph.Graph) adjacency {
	adj := make(adjacency, g.NumNodes())
	for v := range adj {
		row := g.Neighbors(graph.NodeID(v))
		adj[v] = make([]graph.NodeID, len(row))
		for i, a := range row {
			adj[v][i] = a.To
		}
		slices.Sort(adj[v])
	}
	return adj
}

// Biconnected reports whether g has at least 3 nodes (by the usual
// convention a single edge is not biconnected), is connected, and has no cut
// vertex.
func Biconnected(g *graph.Graph) bool {
	cuts, reached := newAdjacency(g).cutVertices()
	return reached >= 3 && reached == g.NumNodes() && len(cuts) == 0
}

// cutVertices runs Tarjan's low-point DFS from node 0 and returns, in
// ascending order, the cut vertices of the component it reaches, and how
// many nodes that component has. A non-root vertex p is a cut vertex if some
// DFS child c has low[c] ≥ disc[p]; the root is one if it has two or more DFS
// children.
func (adj adjacency) cutVertices() (cuts []graph.NodeID, reached int) {
	n := len(adj)
	if n == 0 {
		return nil, 0
	}
	disc := make([]int, n)
	low := make([]int, n)
	isCut := make([]bool, n)
	for i := range disc {
		disc[i] = -1
	}
	type frame struct {
		node, parent graph.NodeID
		idx          int
	}
	stack := []frame{{node: 0, parent: graph.Invalid}}
	disc[0], low[0], reached = 0, 0, 1
	rootKids := 0
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx < len(adj[f.node]) {
			v := adj[f.node][f.idx]
			f.idx++
			switch {
			case v == f.parent:
			case disc[v] == -1:
				disc[v], low[v] = reached, reached
				reached++
				stack = append(stack, frame{node: v, parent: f.node})
			default:
				low[f.node] = min(low[f.node], disc[v])
			}
			continue
		}
		done := *f
		stack = stack[:len(stack)-1]
		p := done.parent
		if p == graph.Invalid {
			continue
		}
		low[p] = min(low[p], low[done.node])
		if p == 0 {
			rootKids++
		} else if low[done.node] >= disc[p] {
			isCut[p] = true
		}
	}
	isCut[0] = rootKids >= 2
	for v, c := range isCut {
		if c {
			cuts = append(cuts, graph.NodeID(v))
		}
	}
	return cuts, reached
}

// stNumbering computes an st-numbering of the biconnected graph for the
// edge (s, t): num[v] for every node v, a bijection onto {1..n} with
// num[s] = 1, num[t] = n, and every other vertex adjacent to both a lower-
// and a higher-numbered vertex. This is Tarjan's streamlined list-based
// algorithm (1986): DFS from s with (s, t) as the first tree edge, then
// insert each vertex into an ordered list before or after its DFS parent
// according to the sign of its low-point. The error wraps ErrNotBiconnected
// when the graph has no st-numbering for (s, t).
//
// st-numberings are the backbone of Médard et al.'s redundant trees: the
// increasing-order tree and the decreasing-order tree are internally
// vertex-disjoint, so any single failure leaves every node attached to the
// source by at least one of them.
func (adj adjacency) stNumbering(s, t graph.NodeID) ([]int, error) {
	if n := graph.NodeID(len(adj)); s < 0 || s >= n || t < 0 || t >= n {
		return nil, fmt.Errorf("st-numbering: unknown endpoint %d/%d", s, t)
	}
	if _, ok := slices.BinarySearch(adj[s], t); !ok {
		return nil, fmt.Errorf("st-numbering: (%d, %d) is not an edge", s, t)
	}
	n := len(adj)
	pre := make([]int, n)
	low := make([]graph.NodeID, n) // the vertex realizing the low-point
	parent := make([]graph.NodeID, n)
	for i := range pre {
		pre[i] = -1
	}

	// DFS from s traversing (s, t) first; record preorder and low-points
	// (as vertices, so the sign rule can look them up). s's other edges are
	// back edges, seen from their far ends.
	preorder := make([]graph.NodeID, 0, n)
	visit := func(v, par graph.NodeID) {
		pre[v] = len(preorder)
		low[v] = v
		parent[v] = par
		preorder = append(preorder, v)
	}
	visit(s, graph.Invalid)
	visit(t, s)
	type frame struct {
		node graph.NodeID
		idx  int
	}
	stack := []frame{{node: t}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx < len(adj[f.node]) {
			v := adj[f.node][f.idx]
			f.idx++
			switch {
			case v == parent[f.node]:
			case pre[v] == -1:
				visit(v, f.node)
				stack = append(stack, frame{node: v})
			case pre[v] < pre[low[f.node]]:
				low[f.node] = v
			}
			continue
		}
		done := f.node
		stack = stack[:len(stack)-1]
		if p := parent[done]; pre[low[done]] < pre[low[p]] {
			low[p] = low[done]
		}
	}
	if len(preorder) != n {
		return nil, fmt.Errorf("%w: %d of %d vertices reached from %d without passing %d",
			ErrNotBiconnected, len(preorder), n, t, s)
	}

	// Tarjan's sign/list pass over a doubly-linked list of node IDs; a
	// low-point whose sign is not set yet counts as plus.
	const (
		minus = -1
		plus  = +1
	)
	sign := make([]int8, n)
	next := make([]graph.NodeID, n)
	prev := make([]graph.NodeID, n)
	sign[s] = minus
	next[s], prev[t] = t, s
	next[t], prev[s] = graph.Invalid, graph.Invalid
	for _, v := range preorder[2:] {
		p := parent[v]
		if sign[low[v]] == minus {
			// Insert v before p.
			pp := prev[p]
			next[v], prev[v] = p, pp
			prev[p] = v
			if pp != graph.Invalid {
				next[pp] = v
			}
			sign[p] = plus
		} else {
			// Insert v after p.
			np := next[p]
			prev[v], next[v] = p, np
			next[p] = v
			if np != graph.Invalid {
				prev[np] = v
			}
			sign[p] = minus
		}
	}

	// Walk the list from s assigning numbers.
	num := make([]int, n)
	i := 0
	for cur := s; cur != graph.Invalid; cur = next[cur] {
		i++
		num[cur] = i
	}
	if i != n || num[s] != 1 || num[t] != n {
		return nil, fmt.Errorf("%w: list construction failed (s=%d t=%d assigned=%d)",
			ErrNotBiconnected, num[s], num[t], i)
	}
	// Verify the st-property; it fails exactly when the graph was not
	// biconnected.
	for v, nv := range num {
		if graph.NodeID(v) == s || graph.NodeID(v) == t {
			continue
		}
		lower, higher := false, false
		for _, u := range adj[v] {
			lower = lower || num[u] < nv
			higher = higher || num[u] > nv
		}
		if !lower || !higher {
			return nil, fmt.Errorf("%w: vertex %d violates the st-property", ErrNotBiconnected, v)
		}
	}
	return num, nil
}
