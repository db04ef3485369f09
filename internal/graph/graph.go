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
// built: a Builder collects its edges and Freeze lays it out. Every method only
// reads, so concurrent use is safe; shortest-path trees are memoized in the
// SPF cache the graph carries (SPFCacheOf), itself safe for concurrent use.
type Graph struct {
	// The edge store is one block in compressed-row form: edge (u, v) is the
	// arc to v in u's row and the arc to u in v's row, each a far end in to
	// and its weight at the same index in w. Row u is [lo[u], hi[u]); on an
	// ordinary graph lo and hi are two windows of one offset array, so row u
	// ends where row u+1 begins. Every row is sorted by (weight, neighbour),
	// and the sweeps read the rows in place (arcs). Lookups scan the shorter
	// of the two rows.
	//
	// A negative bound ^k indexes ownTo and ownW at k instead: the rows a
	// view filters, held apart from the shared block. An ordinary graph owns
	// no such row.
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
	// stepInv is 1/Δ, the inverse bucket width of a full run's bucketed
	// pass, and stepWrap+1 its count of buckets, a power of two; stepInv is
	// 0 when the weights fail the pass's premise (setStep).
	stepInv  float64
	stepWrap int
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

// Builder collects a Graph's nodes and edges: New gives it the nodes,
// SetPos places them, AddEdge records edges one at a time and AddRuns in
// runs, and Freeze lays the rows out once and hands the graph over. It holds
// no rows, so nothing reads an edge before Freeze. A Builder is not safe for
// concurrent use.
type Builder struct {
	pos []Point
	// ends and w are the edges AddEdge recorded, index for index.
	ends [][2]int32
	w    []float64
	runs []Run
}

// New returns a builder of n nodes (IDs 0..n-1) and no edges. Node positions
// default to the origin. It panics, before allocating, when n exceeds
// math.MaxInt32: far ends are stored in 32 bits.
func New(n int) *Builder {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d nodes exceed the limit of %d", n, math.MaxInt32))
	}
	return &Builder{pos: make([]Point, n)}
}

// NumNodes returns the number of nodes being built.
func (b *Builder) NumNodes() int { return len(b.pos) }

// Pos returns the position of node n.
func (b *Builder) Pos(n NodeID) Point { return b.pos[n] }

// SetPos sets the position of node n.
func (b *Builder) SetPos(n NodeID, p Point) { b.pos[n] = p }

// AddEdge records the undirected edge (u, v) with weight w. It returns an
// error if either endpoint is unknown, the endpoints coincide, or the weight
// is not a positive finite number; Freeze refuses a duplicate.
func (b *Builder) AddEdge(u, v NodeID, w float64) error {
	if err := checkEnds(len(b.pos), u, v); err != nil {
		return err
	}
	if !goodWeight(w) {
		return weightError(u, v, w)
	}
	b.ends = append(b.ends, [2]int32{int32(u), int32(v)})
	b.w = append(b.w, w)
	return nil
}

// checkEnds refuses an edge (u, v) on n nodes with an unknown endpoint, or a
// self-loop.
func checkEnds(n int, u, v NodeID) error {
	if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		return fmt.Errorf("add edge %d-%d: %w", u, v, ErrUnknownNode)
	}
	if u == v {
		return fmt.Errorf("add edge: self-loop at node %d", u)
	}
	return nil
}

// goodWeight reports whether w is a positive finite number: NaN fails both
// comparisons and +Inf the second.
func goodWeight(w float64) bool { return w > 0 && w <= math.MaxFloat64 }

// weightError refuses the edge (u, v) for its weight w.
func weightError(u, v NodeID, w float64) error {
	return fmt.Errorf("add edge %d-%d: weight %v must be positive and finite", u, v, w)
}

// Freeze ends the build: it lays every recorded edge out in one block of
// exactly its arcs (see layout), sorts each row by (weight, neighbour) where
// it lies, so that a sweep relaxing under a distance bound stops at the
// first arc past it, and hands the rows to the returned Graph. Large graphs
// are laid out and sorted on up to GOMAXPROCS goroutines. The graph carries
// an empty SPF cache. Freeze refuses the build with an error naming the
// edge: an unknown endpoint or a self-loop in a run, then a weight in a run
// that is not positive and finite, each the first in run order, then a
// duplicate, the lowest in (A, B) order. It leaves the builder empty either
// way, and panics when the graph would hold more than math.MaxInt32 arcs.
func (b *Builder) Freeze() (*Graph, error) {
	runs := b.runs
	if len(b.ends) > 0 {
		w := b.w
		runs = append(runs, Run{Ends: b.ends, Weight: func(i int) float64 { return w[i] }})
	}
	off, to, w, err := layout(len(b.pos), runs)
	g := &Graph{pos: b.pos}
	*b = Builder{} // let go of the runs, and the buffers they hold, before the sort
	if err != nil {
		return nil, err
	}
	n := len(off) - 1
	g.lo, g.hi, g.to, g.w, g.edges = off[:n:n], off[1:], to, w, len(to)/2
	sortRows(off, to, w)
	g.setStep()
	g.spf = NewSPFCache(g, 0)
	return g, nil
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
// off[u+1]), into frozen order.
func sortRows(off, to []int32, w []float64) {
	forRows(len(off)-1, len(to)/sortArcsPerWorker, func(_, first, last int) {
		for u := first; u < last; u++ {
			lo, hi := off[u], off[u+1]
			sortRow(to[lo:hi], w[lo:hi])
		}
	})
}

// forRows splits the rows into contiguous spans [first, last), in order, one
// per goroutine on up to min(GOMAXPROCS, workers) goroutines, calls fn on
// each span with the span's index, and waits for them. With one worker or
// none it calls fn(0, 0, rows) on the caller's goroutine.
func forRows(rows, workers int, fn func(span, first, last int)) {
	workers = min(runtime.GOMAXPROCS(0), workers)
	if workers <= 1 {
		fn(0, 0, rows)
		return
	}
	var wg sync.WaitGroup
	size := (rows + workers - 1) / workers
	for k, start := 0, 0; start < rows; k, start = k+1, start+size {
		wg.Add(1)
		go func(k, first, last int) {
			defer wg.Done()
			fn(k, first, last)
		}(k, start, min(start+size, rows))
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
