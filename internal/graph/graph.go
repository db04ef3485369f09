// Package graph provides the weighted undirected graph substrate used by the
// SMRP reproduction: adjacency storage, shortest paths (Dijkstra),
// connectivity queries, and path utilities.
//
// Graphs are node-indexed with dense integer identifiers, which keeps the
// simulator and the routing layer allocation-light. All algorithms accept an
// optional Mask so callers can express failures ("the network minus this
// link/node") without copying the graph.
package graph

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
)

// NodeID identifies a node in a Graph. IDs are dense: 0..NumNodes()-1.
type NodeID int

// Invalid is the sentinel NodeID used where "no node" must be expressed
// (e.g. Dijkstra parents of unreachable nodes).
const Invalid NodeID = -1

// EdgeID identifies an undirected edge by its canonical endpoint pair.
type EdgeID struct {
	A, B NodeID // invariant: A < B
}

// MakeEdgeID builds the canonical EdgeID for the endpoint pair (u, v).
func MakeEdgeID(u, v NodeID) EdgeID {
	if u > v {
		u, v = v, u
	}
	return EdgeID{A: u, B: v}
}

// String implements fmt.Stringer.
func (e EdgeID) String() string {
	return fmt.Sprintf("(%d-%d)", e.A, e.B)
}

// Arc is one directed half of an undirected edge as stored in adjacency lists.
type Arc struct {
	To     NodeID
	Weight float64
}

// Point is a 2-D node position (used by Waxman-style generators; weights are
// typically Euclidean distances between endpoint positions).
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Graph is a weighted undirected graph with dense node IDs, immutable once
// built: a Builder assembles it and Freeze hands it over. Every method only
// reads, so concurrent use is safe; shortest-path trees are memoized in the
// SPF cache the graph carries (SPFCacheOf), itself safe for concurrent use.
type Graph struct {
	// adj is the graph's one edge store: edge (u, v) is the arc to v in u's
	// row and the arc to u in v's row, both carrying its weight. Every row is
	// sorted by (weight, neighbour), and the sweeps read the rows in place.
	// Lookups scan the shorter of the two rows.
	adj [][]Arc
	pos []Point
	// edges counts the undirected edges in adj.
	edges int
	// spf memoizes Dijkstra results keyed by (source, mask fingerprint).
	// Freeze and View attach it empty; it holds nothing until the first
	// query.
	spf *SPFCache
	// A view (see View) reads an arc as leading to node To − base, Pos
	// through ids, and allocates only the owned arcs of its private rows.
	// base is zero and ids nil on an ordinary graph.
	base  NodeID
	ids   *NodeMap
	owned int
}

// ErrUnknownNode is returned when an operation names a node the graph does
// not contain. Higher layers (core, spfbase, hierarchy) wrap it, so
// errors.Is(err, graph.ErrUnknownNode) matches across the whole stack.
var ErrUnknownNode = errors.New("graph: unknown node")

// ErrUnknownEdge is returned when an operation names a link the graph does
// not contain: two nodes no edge joins, or a node paired with itself.
var ErrUnknownEdge = errors.New("graph: unknown edge")

// Builder assembles a Graph: New gives it the nodes, SetPos places them,
// AddEdge inserts the edges, after Reserve when the degrees are known in
// advance, and Freeze hands the result over. Its reads are the Graph's own,
// over rows still in insertion order. A Builder is not safe for concurrent
// use.
type Builder struct {
	g Graph
}

// New returns a builder of n nodes (IDs 0..n-1) and no edges. Node positions
// default to the origin.
func New(n int) *Builder {
	return &Builder{g: Graph{
		adj: make([][]Arc, n),
		pos: make([]Point, n),
	}}
}

// NumNodes returns the number of nodes being built.
func (b *Builder) NumNodes() int { return b.g.NumNodes() }

// Pos returns the position of node n.
func (b *Builder) Pos(n NodeID) Point { return b.g.Pos(n) }

// Components lists the connected components of the edges inserted so far
// (see Graph.Components).
func (b *Builder) Components() [][]NodeID { return b.g.Components(nil) }

// Reserve grows every row once, making room at node n for extra[n] more
// arcs, and carves all rows from one new block that holds exactly their arcs
// plus the reserve, the arcs already there copied in order. A build that
// reserves each row's final degree and then inserts it with AddEdge ends
// with rows that have no slack, which Freeze then holds in the one block. No
// count may be negative. It panics when extra does not hold one count per
// node.
func (b *Builder) Reserve(extra []int32) {
	adj := b.g.adj
	if len(extra) != len(adj) {
		panic(fmt.Sprintf("graph: reserve of %d rows on %d nodes", len(extra), len(adj)))
	}
	total := 0
	for n, row := range adj {
		total += len(row) + int(extra[n])
	}
	block := make([]Arc, total)
	for n, row := range adj {
		size := len(row) + int(extra[n])
		adj[n] = append(block[:0:size], row...)
		block = block[size:]
	}
}

// SetPos sets the position of node n.
func (b *Builder) SetPos(n NodeID, p Point) { b.g.pos[n] = p }

// AddEdge inserts the undirected edge (u, v) with weight w. It returns an
// error if either endpoint is unknown, the endpoints coincide, the weight is
// not a positive finite number, or the edge already exists.
func (b *Builder) AddEdge(u, v NodeID, w float64) error {
	g := &b.g
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("add edge %d-%d: %w", u, v, ErrUnknownNode)
	}
	if u == v {
		return fmt.Errorf("add edge: self-loop at node %d", u)
	}
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		return fmt.Errorf("add edge %d-%d: weight %v must be positive and finite", u, v, w)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("add edge %d-%d: already present", u, v)
	}
	g.adj[u] = append(g.adj[u], Arc{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], Arc{To: u, Weight: w})
	g.edges++
	return nil
}

// Freeze ends the build: each row is sorted by (weight, neighbour) where it
// lies, so that a sweep relaxing under a distance bound stops at the first
// arc past it, and the rows are handed to the returned Graph without a copy.
// Large graphs sort their rows on up to GOMAXPROCS goroutines. The graph
// carries an empty SPF cache, and the builder is left empty.
func (b *Builder) Freeze() *Graph {
	g := b.g
	b.g = Graph{}
	sortRows(g.adj, 2*g.edges)
	g.spf = NewSPFCache(&g, 0)
	return &g
}

// sortArcsPerWorker is the fewest arcs Freeze gives a goroutine. It is the
// measured crossover on rows of six arcs, the sparse planes' degree: sorting
// 4 096 arcs on two goroutines is no faster than on one, 8 192 take two
// thirds of the time. Rows of fifty arcs (a dense domain) gain from fewer
// arcs still. So a paper-sized topology (a few hundred arcs) sorts on the
// caller's goroutine; a FlatMegascale(8192) twin (about 45 000 arcs) and a
// megascale hierarchy split.
const sortArcsPerWorker = 1 << 12

// sortRows sorts every row into frozen order, splitting the rows (which hold
// arcs arcs in all) into contiguous runs, one per goroutine.
func sortRows(rows [][]Arc, arcs int) {
	workers := min(runtime.GOMAXPROCS(0), arcs/sortArcsPerWorker)
	if workers <= 1 {
		for _, row := range rows {
			sortRow(row)
		}
		return
	}
	var wg sync.WaitGroup
	size := (len(rows) + workers - 1) / workers
	for start := 0; start < len(rows); start += size {
		wg.Add(1)
		go func(part [][]Arc) {
			defer wg.Done()
			for _, row := range part {
				sortRow(row)
			}
		}(rows[start:min(start+size, len(rows))])
	}
	wg.Wait()
}

// arcBefore is the frozen row order: by weight, then by neighbour.
func arcBefore(a, b Arc) bool {
	return a.Weight < b.Weight || (a.Weight == b.Weight && a.To < b.To)
}

// sortRow sorts one row into frozen order. Rows are short — six arcs on the
// sparse planes, under a hundred in a dense domain — and there are as many
// as nodes, so the comparison has to inline: an insertion sort does that,
// the library sort (a call through a func value per comparison, three times
// the build time of a dense hierarchy) takes over where quadratic would hurt.
func sortRow(row []Arc) {
	if len(row) > 128 {
		slices.SortFunc(row, func(a, b Arc) int {
			switch {
			case arcBefore(a, b):
				return -1
			case arcBefore(b, a):
				return 1
			}
			return 0
		})
		return
	}
	for i := 1; i < len(row); i++ {
		a := row[i]
		j := i
		for ; j > 0 && arcBefore(a, row[j-1]); j-- {
			row[j] = row[j-1]
		}
		row[j] = a
	}
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges in the graph.
func (g *Graph) NumEdges() int { return g.edges }

// Pos returns the position of node n.
func (g *Graph) Pos(n NodeID) Point {
	if g.ids != nil {
		n, _ = g.ids.ToFull(n)
	}
	return g.pos[n]
}

// valid reports whether n is a node of g.
func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.adj) }

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.EdgeWeight(u, v)
	return ok
}

// EdgeWeight returns the weight of edge (u, v) and whether it exists. It
// scans the shorter of the two endpoint rows: O(min degree).
func (g *Graph) EdgeWeight(u, v NodeID) (float64, bool) {
	if !g.valid(u) || !g.valid(v) {
		return 0, false
	}
	if len(g.adj[v]) < len(g.adj[u]) {
		u, v = v, u
	}
	to := v + g.base
	for _, a := range g.adj[u] {
		if a.To == to {
			return a.Weight, true
		}
	}
	return 0, false
}

// Neighbors returns the adjacency list of n, by (weight, neighbour). The
// returned slice is owned by the graph and must not be modified. On a view
// whose rows are offset from its parent's IDs it is a translated copy.
func (g *Graph) Neighbors(n NodeID) []Arc {
	row := g.adj[n]
	if g.base != 0 {
		row = slices.Clone(row)
		for i := range row {
			row[i].To -= g.base
		}
	}
	return row
}

// Degree returns the number of edges incident to n.
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// AvgDegree returns the average node degree (2·|E| / |V|), or 0 for an empty
// graph.
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(len(g.adj))
}

// Edges returns all undirected edges in canonical (A, B) order, whatever the
// insertion sequence. It walks the rows in ascending node order, taking each
// row's arcs to higher-numbered neighbours sorted by neighbour.
func (g *Graph) Edges() []EdgeID {
	out := make([]EdgeID, 0, g.edges)
	for u, arcs := range g.adj {
		start := len(out)
		for _, a := range arcs {
			if v := a.To - g.base; v > NodeID(u) {
				out = append(out, EdgeID{A: NodeID(u), B: v})
			}
		}
		slices.SortFunc(out[start:], edgeIDCompare)
	}
	return out
}

// edgeIDCompare orders EdgeIDs by (A, B); shared by the package's sorted
// edge listings.
func edgeIDCompare(a, b EdgeID) int {
	if a.A != b.A {
		return int(a.A - b.A)
	}
	return int(a.B - b.B)
}

// Mask (node/edge exclusion sets, fingerprints, bounded diffs) lives in
// mask.go.
