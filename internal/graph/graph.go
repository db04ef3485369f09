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

// Graph is a weighted undirected graph with dense node IDs.
//
// Build one with New and AddEdge, after Reserve when the degrees are known
// in advance. Graph methods are not safe for concurrent mutation;
// concurrent read-only use is safe.
type Graph struct {
	// adj is the graph's one edge store: edge (u, v) is the arc to v in u's
	// row and the arc to u in v's row, both carrying its weight. Rows keep
	// insertion order until Freeze sorts each by (weight, neighbour); the
	// sweeps read them in place. Lookups scan the shorter of the two rows.
	adj [][]Arc
	pos []Point
	// edges counts the undirected edges in adj.
	edges int
	// frozen marks the graph immutable (see Freeze).
	frozen bool
	// version counts structural mutations (nodes, edges, positions). The
	// SPF cache uses it to invalidate memoized shortest-path trees when the
	// topology changes. Mutation is single-threaded by contract (see
	// EnableSPFCache), so no atomicity is needed.
	version uint64
	// spf, when non-nil, memoizes Dijkstra results keyed by (source,
	// mask fingerprint). See EnableSPFCache.
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

// ErrFrozen is returned (or carried by the panic message of error-less
// mutators) when a mutation reaches a graph after Freeze.
var ErrFrozen = errors.New("graph: graph is frozen")

// New returns a graph with n nodes (IDs 0..n-1) and no edges. Node positions
// default to the origin.
func New(n int) *Graph {
	return &Graph{
		adj: make([][]Arc, n),
		pos: make([]Point, n),
	}
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges in the graph.
func (g *Graph) NumEdges() int { return g.edges }

// Freeze ends the graph's build phase: each row is sorted by (weight,
// neighbour), so that a sweep relaxing under a distance bound stops at the
// first arc past it. Rows are sorted in place when none has slack, as after
// Reserve with exact counts or Clone; otherwise they are first re-packed onto
// one flat backing array, releasing the build's append slack. Large graphs
// sort their rows on up to GOMAXPROCS goroutines. A frozen graph is
// immutable: AddEdge returns ErrFrozen, and the error-less mutators SetPos
// and Reserve panic. Freeze is idempotent and returns g for chaining. Clone
// of a frozen graph shares the immutable storage instead of deep-copying it.
func (g *Graph) Freeze() *Graph {
	if g.frozen {
		return g
	}
	if slices.ContainsFunc(g.adj, func(row []Arc) bool { return len(row) < cap(row) }) {
		g.adj = packRows(g.adj)
	}
	sortRows(g.adj, 2*g.edges)
	g.frozen = true
	return g
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

// packRows copies rows onto one flat backing array (2·|E| arcs, one
// allocation). Every returned row is full (len == cap), so an append to one
// reallocates instead of clobbering its neighbour's arcs.
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

// Reserve grows every row once, making room at node n for extra[n] more
// arcs, and carves all rows from one new block that holds exactly their arcs
// plus the reserve, the arcs already there copied in order. A build that
// reserves each row's final degree and then inserts it with AddEdge ends
// with rows that have no slack, which Freeze sorts where they lie. No count
// may be negative. It panics on a frozen graph or when extra does not hold
// one count per node.
func (g *Graph) Reserve(extra []int32) {
	if g.frozen {
		panic(ErrFrozen)
	}
	if len(extra) != len(g.adj) {
		panic(fmt.Sprintf("graph: reserve of %d rows on %d nodes", len(extra), len(g.adj)))
	}
	total := 0
	for n, row := range g.adj {
		total += len(row) + int(extra[n])
	}
	block := make([]Arc, total)
	for n, row := range g.adj {
		size := len(row) + int(extra[n])
		g.adj[n] = append(block[:0:size], row...)
		block = block[size:]
	}
}

// SetPos sets the position of node n. It panics on a frozen graph.
func (g *Graph) SetPos(n NodeID, p Point) {
	if g.frozen {
		panic(ErrFrozen)
	}
	g.pos[n] = p
	g.version++
}

// Pos returns the position of node n.
func (g *Graph) Pos(n NodeID) Point {
	if g.ids != nil {
		n, _ = g.ids.ToFull(n)
	}
	return g.pos[n]
}

// valid reports whether n is a node of g.
func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.adj) }

// AddEdge inserts the undirected edge (u, v) with weight w. It returns an
// error if either endpoint is unknown, the endpoints coincide, the weight is
// not a positive finite number, or the edge already exists.
func (g *Graph) AddEdge(u, v NodeID, w float64) error {
	if g.frozen {
		return fmt.Errorf("add edge %d-%d: %w", u, v, ErrFrozen)
	}
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
	g.version++
	return nil
}

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

// Neighbors returns the adjacency list of n: in insertion order while the
// graph is being built, by (weight, neighbour) once it is frozen. The
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

// Clone returns a deep copy of the graph. All per-node adjacency slices of
// the clone share one flat backing array (see packRows), so cloning a
// 10⁵-node graph costs three allocations, not one make per node.
//
// Cloning a frozen graph is O(1): the clone is frozen too and shares the
// immutable adjacency and positions — no per-clone copy of megascale state.
// (The SPF cache, as always, is not cloned.)
func (g *Graph) Clone() *Graph {
	if g.frozen {
		c := *g
		c.spf = nil
		return &c
	}
	return &Graph{
		adj:   packRows(g.adj),
		pos:   slices.Clone(g.pos),
		edges: g.edges,
	}
}

// Mask (node/edge exclusion sets, fingerprints, bounded diffs) lives in
// mask.go.
