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
	"slices"
	"sync/atomic"
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

// Other returns the endpoint of e opposite to n, and reports whether n is an
// endpoint of e at all.
func (e EdgeID) Other(n NodeID) (NodeID, bool) {
	switch n {
	case e.A:
		return e.B, true
	case e.B:
		return e.A, true
	default:
		return Invalid, false
	}
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
// The zero value is an empty graph; use New or AddNode/AddEdge to populate
// it. Graph methods are not safe for concurrent mutation; concurrent
// read-only use is safe.
type Graph struct {
	adj     [][]Arc
	pos     []Point
	weights map[EdgeID]float64
	// frozen marks the graph immutable (see Freeze). Once set, edge lookups
	// are served from the sorted flat pair below and the weights map is
	// dropped from steady state entirely.
	frozen  bool
	edgeIDs []EdgeID  // canonical (A,B)-sorted edge list; frozen graphs only
	edgeW   []float64 // weights parallel to edgeIDs
	// version counts structural mutations (nodes, edges, positions). The
	// SPF cache uses it to invalidate memoized shortest-path trees when the
	// topology changes. Mutation is single-threaded by contract (see
	// EnableSPFCache), so no atomicity is needed.
	version uint64
	// spf, when non-nil, memoizes Dijkstra results keyed by (source,
	// mask fingerprint). See EnableSPFCache.
	spf *SPFCache
	// csr lazily caches the flat compressed-sparse-row adjacency view the
	// sweep engine relaxes over; it is rebuilt (via the version counter)
	// whenever the topology changes. See csrNow.
	csr atomic.Pointer[csrView]
}

// ErrUnknownNode is returned when an operation names a node the graph does
// not contain. Higher layers (core, spfbase, hierarchy) wrap it, so
// errors.Is(err, graph.ErrUnknownNode) matches across the whole stack.
var ErrUnknownNode = errors.New("graph: unknown node")

// ErrFrozen is returned (or carried by the panic message of error-less
// mutators) when a mutation reaches a graph after Freeze.
var ErrFrozen = errors.New("graph: graph is frozen")

// New returns a graph with n nodes (IDs 0..n-1) and no edges. Node positions
// default to the origin.
func New(n int) *Graph {
	return &Graph{
		adj:     make([][]Arc, n),
		pos:     make([]Point, n),
		weights: make(map[EdgeID]float64, n*2),
	}
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges in the graph.
func (g *Graph) NumEdges() int {
	if g.frozen {
		return len(g.edgeIDs)
	}
	return len(g.weights)
}

// Freeze ends the graph's build phase: the edge set is compacted into a
// canonically sorted flat []EdgeID/[]float64 pair (binary-searched by
// HasEdge/EdgeWeight), the per-node adjacency slices are re-packed onto one
// flat backing array, the CSR sweep view is materialized eagerly, and the
// weights map is dropped from steady state entirely — on a megascale
// topology that map is the single largest resident structure, and it buys
// nothing once construction ends. A frozen graph is immutable: AddEdge
// returns ErrFrozen, and the error-less mutators (AddNode, SetPos) panic.
// Freeze is idempotent and returns g for chaining.
//
// All read APIs answer bit-identically to the map-backed build phase (see
// TestFrozenGraphEquivalence); Clone of a frozen graph shares the immutable
// storage instead of deep-copying it.
func (g *Graph) Freeze() *Graph {
	if g.frozen {
		return g
	}
	g.edgeIDs = make([]EdgeID, 0, len(g.weights))
	for id := range g.weights {
		g.edgeIDs = append(g.edgeIDs, id)
	}
	slices.SortFunc(g.edgeIDs, edgeIDCompare)
	g.edgeW = make([]float64, len(g.edgeIDs))
	for i, id := range g.edgeIDs {
		g.edgeW[i] = g.weights[id]
	}
	// Re-pack adjacency onto one flat backing (same layout Clone builds), so
	// the per-node append slack from the build phase is released.
	total := 0
	for _, arcs := range g.adj {
		total += len(arcs)
	}
	backing := make([]Arc, 0, total)
	packed := make([][]Arc, len(g.adj))
	for i, arcs := range g.adj {
		start := len(backing)
		backing = append(backing, arcs...)
		packed[i] = backing[start:len(backing):len(backing)]
	}
	g.adj = packed
	g.weights = nil
	g.frozen = true
	g.csrNow() // materialize the serving view while the build is still warm
	return g
}

// Frozen reports whether Freeze has ended the graph's build phase.
func (g *Graph) Frozen() bool { return g.frozen }

// edgeWeightByID returns the weight of the canonical edge id and whether it
// exists, from whichever representation is live (sorted pair when frozen,
// map during the build phase).
func (g *Graph) edgeWeightByID(id EdgeID) (float64, bool) {
	if g.frozen {
		if i, ok := slices.BinarySearchFunc(g.edgeIDs, id, edgeIDCompare); ok {
			return g.edgeW[i], true
		}
		return 0, false
	}
	w, ok := g.weights[id]
	return w, ok
}

// AddNode appends a node at position p and returns its ID. It panics on a
// frozen graph (construction has ended).
func (g *Graph) AddNode(p Point) NodeID {
	if g.frozen {
		panic(ErrFrozen)
	}
	g.adj = append(g.adj, nil)
	g.pos = append(g.pos, p)
	if g.weights == nil {
		g.weights = make(map[EdgeID]float64)
	}
	g.version++
	return NodeID(len(g.adj) - 1)
}

// SetPos sets the position of node n. It panics on a frozen graph.
func (g *Graph) SetPos(n NodeID, p Point) {
	if g.frozen {
		panic(ErrFrozen)
	}
	g.pos[n] = p
	g.version++
}

// Version returns the structural-mutation counter. It increases whenever a
// node, edge, or position changes, and is what invalidates memoized SPF
// state (see SPFCache).
func (g *Graph) Version() uint64 { return g.version }

// Pos returns the position of node n.
func (g *Graph) Pos(n NodeID) Point { return g.pos[n] }

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
	id := MakeEdgeID(u, v)
	if _, ok := g.weights[id]; ok {
		return fmt.Errorf("add edge %d-%d: already present", u, v)
	}
	if g.weights == nil {
		g.weights = make(map[EdgeID]float64)
	}
	g.weights[id] = w
	g.adj[u] = append(g.adj[u], Arc{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], Arc{To: u, Weight: w})
	g.version++
	return nil
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.edgeWeightByID(MakeEdgeID(u, v))
	return ok
}

// EdgeWeight returns the weight of edge (u, v) and whether it exists.
func (g *Graph) EdgeWeight(u, v NodeID) (float64, bool) {
	return g.edgeWeightByID(MakeEdgeID(u, v))
}

// Neighbors returns the adjacency list of n. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(n NodeID) []Arc { return g.adj[n] }

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

// Edges returns all undirected edges sorted canonically (deterministic order
// regardless of insertion sequence). On a frozen graph this is a copy of the
// resident sorted edge list.
func (g *Graph) Edges() []EdgeID {
	if g.frozen {
		return slices.Clone(g.edgeIDs)
	}
	out := make([]EdgeID, 0, len(g.weights))
	for id := range g.weights {
		out = append(out, id)
	}
	slices.SortFunc(out, edgeIDCompare)
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
// the clone share one flat backing array (2·|E| arcs total), so cloning a
// 10⁵-node graph costs three allocations plus the weight map — not one make
// per node. The clone's slices are full (len == cap per node), so appends on
// the clone reallocate instead of clobbering a neighbor's arcs.
//
// Cloning a frozen graph is O(1): the clone is frozen too and shares the
// immutable CSR adjacency, positions, and sorted edge arrays — no per-clone
// copy of megascale state. (The SPF cache, as always, is not cloned.)
func (g *Graph) Clone() *Graph {
	if g.frozen {
		c := &Graph{
			adj:     g.adj,
			pos:     g.pos,
			frozen:  true,
			edgeIDs: g.edgeIDs,
			edgeW:   g.edgeW,
			version: g.version,
		}
		if v := g.csr.Load(); v != nil {
			c.csr.Store(v)
		}
		return c
	}
	c := &Graph{
		adj:     make([][]Arc, len(g.adj)),
		pos:     make([]Point, len(g.pos)),
		weights: make(map[EdgeID]float64, len(g.weights)),
	}
	copy(c.pos, g.pos)
	total := 0
	for _, arcs := range g.adj {
		total += len(arcs)
	}
	backing := make([]Arc, 0, total)
	for i, arcs := range g.adj {
		start := len(backing)
		backing = append(backing, arcs...)
		c.adj[i] = backing[start:len(backing):len(backing)]
	}
	for id, w := range g.weights {
		c.weights[id] = w
	}
	return c
}

// Mask (node/edge exclusion sets, fingerprints, bounded diffs) lives in
// mask.go.
