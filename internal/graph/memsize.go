package graph

// Deterministic memory accounting for megascale topologies. The footprint is
// computed from element counts and fixed per-element sizes rather than read
// off the live heap, so the same graph reports the same number on every run,
// machine, and worker count — which is what lets the megascale study publish
// per-component memory as a CI-stable metric.

// Per-element sizes of the graph's resident structures.
const (
	bytesPerArc    = 12 // far end int32(4) + weight float64(8)
	bytesPerOffset = 4  // one int32 row bound
	bytesPerPoint  = 16 // Point{X, Y float64}
)

// MemoryFootprint returns the deterministic byte accounting of the graph's
// core structures: the edge store (one row offset per node plus the end, and
// two arcs per edge), its one store in every phase (the sweeps read the rows
// in place), and node positions. A view counts only what it owns: the two
// bounds of each of its rows and the arcs of its private rows; the aliased
// rows and the positions are its parent's. The SPF cache is deliberately
// excluded: it is a rebuildable derivative whose contents depend on query
// history, not on the topology.
func (g *Graph) MemoryFootprint() int64 {
	if g.ids != nil {
		return int64(len(g.lo))*2*bytesPerOffset + int64(len(g.ownTo))*bytesPerArc
	}
	return int64(len(g.lo)+1)*bytesPerOffset + int64(2*g.edges)*bytesPerArc + int64(len(g.pos))*bytesPerPoint
}
