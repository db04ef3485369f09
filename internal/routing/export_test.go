package routing

import (
	"smrp/internal/graph"
)

// Graph returns the underlying topology.
func (d *Domain) Graph() *graph.Graph { return d.g }

// Mask returns the currently applied failure mask (shared; callers must not
// mutate it).
func (d *Domain) Mask() *graph.Mask { return d.mask }

// Dist returns the converged unicast distance from → to.
func (d *Domain) Dist(from, to graph.NodeID) float64 {
	_, dist := d.g.ShortestPath(from, to, d.mask)
	return dist
}
