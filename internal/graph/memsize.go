package graph

// Deterministic memory accounting for megascale topologies. The footprint is
// computed from element counts and fixed per-element sizes rather than read
// off the live heap, so the same graph reports the same number on every run,
// machine, and worker count — which is what lets the megascale study publish
// per-component memory as a CI-stable metric.

// Per-element sizes of the graph's resident structures on a 64-bit platform.
const (
	bytesPerArc      = 16 // Arc{To NodeID(8), Weight float64(8)}
	bytesPerPoint    = 16 // Point{X, Y float64}
	bytesSliceHeader = 24 // ptr + len + cap
)

// MemoryFootprint returns the deterministic byte accounting of the graph's
// core structures: adjacency rows (headers plus two arcs per edge), which are
// its one edge store in every phase (the sweeps read the rows in place), and
// node positions. A view counts only what it owns: its row headers and the
// arcs of its private rows; the aliased rows and the positions are its
// parent's. The SPF cache is deliberately excluded: it is a rebuildable
// derivative whose presence depends on query history, not on the topology.
func (g *Graph) MemoryFootprint() int64 {
	arcs, points := 2*g.edges, len(g.pos)
	if g.ids != nil {
		arcs, points = g.owned, 0
	}
	return int64(len(g.adj))*bytesSliceHeader + int64(arcs)*bytesPerArc + int64(points)*bytesPerPoint
}
