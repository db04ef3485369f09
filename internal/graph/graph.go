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
	// The edge store is one block in compressed-row form: edge (u, v) is the
	// arc to v in u's row and the arc to u in v's row, each a far end in to
	// and its weight at the same index in w. Row u is [lo[u], hi[u]); on a
	// frozen graph lo and hi are two windows of one offset array, so row u
	// ends where row u+1 begins. Every row is sorted by (weight, neighbour),
	// and the sweeps read the rows in place (arcs). Lookups scan the shorter
	// of the two rows.
	//
	// A negative bound ^k indexes ownTo and ownW at k instead: the rows a
	// view filters, or a builder grows past their reserve, held apart from
	// the shared block. An ordinary frozen graph owns no such row.
	lo, hi []int32
	to     []int32
	w      []float64
	ownTo  []int32
	ownW   []float64
	pos    []Point
	// edges counts the undirected edges in the store.
	edges int
	// spf memoizes Dijkstra results keyed by (source, mask fingerprint).
	// Freeze and View attach it empty; it holds nothing until the first
	// query.
	spf *SPFCache
	// A view (see View) reads a far end t as local node t − base, in 32-bit
	// arithmetic, and Pos through ids. base is zero and ids nil on an
	// ordinary graph.
	base int32
	ids  *NodeMap
}

// arcs returns row u: its far ends (read as local IDs by subtracting g.base)
// and, index for index, their weights.
func (g *Graph) arcs(u NodeID) ([]int32, []float64) {
	lo, hi := g.lo[u], g.hi[u]
	if lo >= 0 {
		return g.to[lo:hi], g.w[lo:hi]
	}
	return g.ownTo[^lo:^hi], g.ownW[^lo:^hi]
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
	// end[u] is where row u's room ends, in the encoding of g.hi: a row
	// that is full when an arc arrives moves to the own block (grow).
	end []int32
}

// New returns a builder of n nodes (IDs 0..n-1) and no edges. Node positions
// default to the origin. It panics, before allocating, when n exceeds
// math.MaxInt32: far ends are stored in 32 bits.
func New(n int) *Builder {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d nodes exceed the limit of %d", n, math.MaxInt32))
	}
	return &Builder{
		g: Graph{
			lo:  make([]int32, n, n+1), // Freeze appends the end offset
			hi:  make([]int32, n),
			pos: make([]Point, n),
		},
		end: make([]int32, n),
	}
}

// NumNodes returns the number of nodes being built.
func (b *Builder) NumNodes() int { return b.g.NumNodes() }

// Pos returns the position of node n.
func (b *Builder) Pos(n NodeID) Point { return b.g.Pos(n) }

// Components lists the connected components of the edges inserted so far
// (see Graph.Components).
func (b *Builder) Components() [][]NodeID { return b.g.Components(nil) }

// Reserve grows every row once, making room at node n for extra[n] more
// arcs, and carves all rows, in node order, from one new block that holds
// exactly their arcs plus the reserve, the arcs already there copied in
// order. A build that reserves each row's final degree and then inserts it
// with AddEdge ends with rows that fill the block, which Freeze then keeps as
// the graph's store without a copy. No count may be negative. It panics when
// extra does not hold one count per node, or when the block would pass
// math.MaxInt32 arcs.
func (b *Builder) Reserve(extra []int32) {
	g := &b.g
	if len(extra) != len(g.lo) {
		panic(fmt.Sprintf("graph: reserve of %d rows on %d nodes", len(extra), len(g.lo)))
	}
	total := 2 * g.edges
	for _, x := range extra {
		total += int(x)
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("graph: reserve of %d arcs exceeds the limit of %d", total, math.MaxInt32))
	}
	to, w := make([]int32, total), make([]float64, total)
	k := int32(0)
	for u, x := range extra {
		rt, rw := g.arcs(NodeID(u))
		copy(to[k:], rt)
		copy(w[k:], rw)
		g.lo[u], g.hi[u] = k, k+int32(len(rt))
		k += int32(len(rt)) + x
		b.end[u] = k
	}
	g.to, g.w, g.ownTo, g.ownW = to, w, nil, nil
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
	b.push(u, int32(v), w)
	b.push(v, int32(u), w)
	g.edges++
	return nil
}

// push appends the arc (to, w) to row u, growing the row first when it is
// full.
func (b *Builder) push(u NodeID, to int32, w float64) {
	g := &b.g
	if g.hi[u] == b.end[u] {
		b.grow(u)
	}
	if k := g.hi[u]; k >= 0 {
		g.to[k], g.w[k] = to, w
		g.hi[u]++
	} else {
		g.ownTo[^k], g.ownW[^k] = to, w
		g.hi[u]-- // ^(k+1)
	}
}

// grow moves row u to the end of the own block with room for twice its arcs
// (four at least). Its old place stays dead until Freeze packs the rows.
func (b *Builder) grow(u NodeID) {
	g := &b.g
	rt, rw := g.arcs(u)
	k, room := len(g.ownTo), max(2*len(rt), 4)
	if k+room > math.MaxInt32 {
		panic(fmt.Sprintf("graph: builder rows past %d arcs; reserve them", math.MaxInt32))
	}
	g.ownTo = append(append(g.ownTo, rt...), make([]int32, room-len(rt))...)
	g.ownW = append(append(g.ownW, rw...), make([]float64, room-len(rw))...)
	g.lo[u], g.hi[u], b.end[u] = ^int32(k), ^int32(k+len(rt)), ^int32(k+room)
}

// Freeze ends the build and hands the rows to the returned Graph. Rows that
// fill the block Reserve carved, in node order, are that block, kept without
// a copy; any other build (a row grown past its reserve, room left unused,
// or no reserve at all) is packed once into a block of exactly its arcs.
// Each row is then sorted by (weight, neighbour) where it lies, so that a
// sweep relaxing under a distance bound stops at the first arc past it.
// Large graphs sort their rows on up to GOMAXPROCS goroutines. The graph
// carries an empty SPF cache, and the builder is left empty. It panics when
// the graph holds more than math.MaxInt32 arcs.
func (b *Builder) Freeze() *Graph {
	if 2*b.g.edges > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d arcs exceed the limit of %d", 2*b.g.edges, math.MaxInt32))
	}
	if !b.filled() {
		b.Reserve(make([]int32, len(b.g.lo)))
	}
	g := b.g
	b.g, b.end = Graph{}, nil
	n := len(g.lo)
	off := append(g.lo, int32(len(g.to)))
	g.lo, g.hi = off[:n:n], off[1:]
	sortRows(off, g.to, g.w)
	g.spf = NewSPFCache(&g, 0)
	return &g
}

// filled reports whether the rows fill the reserved block exactly, in node
// order.
func (b *Builder) filled() bool {
	g := &b.g
	if len(g.ownTo) > 0 {
		return false
	}
	next := int32(0)
	for u, lo := range g.lo {
		if lo != next || g.hi[u] != b.end[u] {
			return false
		}
		next = b.end[u]
	}
	return int(next) == len(g.to)
}

// sortArcsPerWorker is the fewest arcs Freeze gives a goroutine. It is the
// measured crossover on rows of six arcs, the sparse planes' degree: sorting
// 4 096 arcs on two goroutines is no faster than on one, 8 192 take two
// thirds of the time. Rows of fifty arcs (a dense domain) gain from fewer
// arcs still. So a paper-sized topology (a few hundred arcs) sorts on the
// caller's goroutine; a FlatMegascale(8192) twin (about 45 000 arcs) and a
// megascale hierarchy split.
const sortArcsPerWorker = 1 << 12

// sortRows sorts every row of the block (to, w), row u at [off[u],
// off[u+1]), into frozen order, splitting the rows into contiguous runs, one
// per goroutine.
func sortRows(off, to []int32, w []float64) {
	rows := len(off) - 1
	sortRun := func(first, last int) {
		for u := first; u < last; u++ {
			lo, hi := off[u], off[u+1]
			sortRow(to[lo:hi], w[lo:hi])
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(to)/sortArcsPerWorker)
	if workers <= 1 {
		sortRun(0, rows)
		return
	}
	var wg sync.WaitGroup
	size := (rows + workers - 1) / workers
	for start := 0; start < rows; start += size {
		wg.Add(1)
		go func(first, last int) {
			defer wg.Done()
			sortRun(first, last)
		}(start, min(start+size, rows))
	}
	wg.Wait()
}

// arcBefore is the frozen row order: by weight, then by neighbour.
func arcBefore(at int32, aw float64, bt int32, bw float64) bool {
	return aw < bw || (aw == bw && at < bt)
}

// sortRow sorts one row, far ends to and weights w index for index, into
// frozen order. Rows are short — six arcs on the sparse planes, under a
// hundred in a dense domain — and there are as many as nodes, so the
// comparison has to inline: an insertion sort does that. Where quadratic
// would hurt, the library sort (a call through a func value per comparison)
// takes over on a copy of the row as arcs.
func sortRow(to []int32, w []float64) {
	w = w[:len(to)]
	if len(to) > 128 {
		row := make([]Arc, len(to))
		for i, t := range to {
			row[i] = Arc{To: NodeID(t), Weight: w[i]}
		}
		slices.SortFunc(row, func(a, b Arc) int {
			switch {
			case arcBefore(int32(a.To), a.Weight, int32(b.To), b.Weight):
				return -1
			case arcBefore(int32(b.To), b.Weight, int32(a.To), a.Weight):
				return 1
			}
			return 0
		})
		for i, a := range row {
			to[i], w[i] = int32(a.To), a.Weight
		}
		return
	}
	for i := 1; i < len(to); i++ {
		at, aw := to[i], w[i]
		j := i
		for ; j > 0 && arcBefore(at, aw, to[j-1], w[j-1]); j-- {
			to[j], w[j] = to[j-1], w[j-1]
		}
		to[j], w[j] = at, aw
	}
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.lo) }

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
func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.lo) }

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
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	to, w := g.arcs(u)
	far := int32(v) + g.base
	for i, t := range to {
		if t == far {
			return w[i], true
		}
	}
	return 0, false
}

// Neighbors returns the adjacency list of n, by (weight, neighbour), in a
// new slice.
func (g *Graph) Neighbors(n NodeID) []Arc {
	to, w := g.arcs(n)
	out := make([]Arc, len(to))
	for i, t := range to {
		out[i] = Arc{To: NodeID(t - g.base), Weight: w[i]}
	}
	return out
}

// Degree returns the number of edges incident to n.
func (g *Graph) Degree(n NodeID) int {
	to, _ := g.arcs(n)
	return len(to)
}

// AvgDegree returns the average node degree (2·|E| / |V|), or 0 for an empty
// graph.
func (g *Graph) AvgDegree() float64 {
	if len(g.lo) == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(len(g.lo))
}

// Edges returns all undirected edges in canonical (A, B) order, whatever the
// insertion sequence. It walks the rows in ascending node order, taking each
// row's arcs to higher-numbered neighbours sorted by neighbour.
func (g *Graph) Edges() []EdgeID {
	out := make([]EdgeID, 0, g.edges)
	for u := range g.lo {
		start := len(out)
		to, _ := g.arcs(NodeID(u))
		for _, t := range to {
			if v := NodeID(t - g.base); v > NodeID(u) {
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
