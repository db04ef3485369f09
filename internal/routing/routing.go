// Package routing simulates the unicast link-state routing substrate
// (OSPF-like) that multicast protocols sit on. It maintains per-node
// shortest-path tables over the current (possibly degraded) topology and
// models reconvergence timing after a failure: detection at the adjacent
// routers, LSA flooding outward, and a per-router SPF recomputation delay.
//
// The paper's observation (via Wang et al. [25]) is that PIM failure
// recovery is dominated by exactly this reconvergence time; SMRP's local
// detours bypass it. The protocol layer uses ConvergenceTime to decide when
// a member's global detour may begin, versus DetectionTime for local ones.
package routing

import (
	"errors"
	"fmt"
	"math"

	"smrp/internal/eventsim"
	"smrp/internal/failure"
	"smrp/internal/graph"
)

// Config sets the reconvergence-delay model.
type Config struct {
	// DetectionDelay is the time for a router adjacent to a failed
	// component to declare it down (hello/dead-interval in OSPF terms).
	DetectionDelay eventsim.Time
	// SPFCompute is the local route-recomputation time each router spends
	// once it learns of the failure.
	SPFCompute eventsim.Time
	// FloodFactor scales LSA propagation: an LSA reaches a router after
	// FloodFactor × (shortest residual distance from the detecting router).
	// 1 means LSAs travel at data-plane speed.
	FloodFactor float64
}

// DefaultConfig returns a reconvergence model reflecting the measurements
// the paper cites (Wang et al. [25]): failure recovery for PIM-over-OSPF is
// dominated by reconvergence — detection (hello/dead interval), LSA
// flooding, and above all the SPF delay/hold-down timers every router
// imposes before recomputing routes. Times are in edge-weight units; with
// unit-square Waxman topologies a typical end-to-end path is ≈0.5–1.5
// units, so SPFCompute dominates, as it does in deployed OSPF.
func DefaultConfig() Config {
	return Config{
		DetectionDelay: 2.0,
		SPFCompute:     5.0,
		FloodFactor:    1.0,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.DetectionDelay < 0 || c.SPFCompute < 0 {
		return errors.New("routing: delays must be non-negative")
	}
	if c.FloodFactor <= 0 {
		return errors.New("routing: FloodFactor must be positive")
	}
	return nil
}

// Domain is a link-state routing domain over one graph. A route is one point
// query (graph.ShortestPath) against the currently-applied failure set, equal
// to what the router's full table under that set would give; the healthy trees
// those queries are guided by sit in the graph's concurrency-safe SPF cache,
// shared by paired protocol instances over the same graph.
//
// Read queries (PathTo, Dist, ConvergenceTime) are safe for
// concurrent use. ApplyFailure mutates the domain's topology view and must be
// externally synchronized with readers — the usual pattern (one event-driven
// simulation owning the domain, or parallel trials each owning a private
// domain) satisfies this naturally.
type Domain struct {
	g    *graph.Graph
	cfg  Config
	mask *graph.Mask
	// lastFailure supports ConvergenceTime queries for the most recent
	// failure event.
	lastFailure *failure.Failure
}

// NewDomain builds a routing domain over g.
func NewDomain(g *graph.Graph, cfg Config) (*Domain, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Domain{
		g:    g,
		cfg:  cfg,
		mask: graph.NewMask(),
	}, nil
}

// ApplyFailure folds a failure into the domain's view of the topology; the
// next query routes around it.
func (d *Domain) ApplyFailure(f failure.Failure) {
	d.mask = d.mask.Union(f.Mask())
	fCopy := f
	d.lastFailure = &fCopy
}

// RemoveFailure lifts a previously applied failure (a repair). Components
// blocked independently stay blocked.
func (d *Domain) RemoveFailure(f failure.Failure) {
	m := d.mask.Clone()
	f.RemoveFrom(m)
	d.mask = m
}

// PathTo returns from's current unicast route to dst (from → … → dst), or
// nil if dst is unreachable in the converged state.
func (d *Domain) PathTo(from, to graph.NodeID) graph.Path {
	p, _ := d.g.ShortestPath(from, to, d.mask)
	return p
}

// DetectionTime returns when routers adjacent to the failure declare it
// down, measured from the failure instant.
func (d *Domain) DetectionTime() eventsim.Time {
	return d.cfg.DetectionDelay
}

// detectors returns the healthy nodes adjacent to the failure, which
// originate the LSAs announcing it.
func detectors(g *graph.Graph, f failure.Failure) []graph.NodeID {
	switch f.Kind {
	case failure.LinkFailure:
		return []graph.NodeID{f.Edge.A, f.Edge.B}
	case failure.NodeFailure:
		var out []graph.NodeID
		for _, arc := range g.Neighbors(f.Node) {
			out = append(out, arc.To)
		}
		return out
	default:
		return nil
	}
}

// ConvergenceTime returns when router n's table reflects failure f, measured
// from the failure instant:
//
//	detection + FloodFactor · min residual distance(detector, n) + SPF compute
//
// Routers adjacent to the failure converge after detection + SPF compute. It
// returns +Inf when no LSA can reach n (n is partitioned from every
// detector).
func (d *Domain) ConvergenceTime(n graph.NodeID, f failure.Failure) eventsim.Time {
	mask := d.mask.Union(f.Mask())
	best := math.Inf(1)
	sw := d.g.NewSweep()
	defer sw.Release()
	for _, det := range detectors(d.g, f) {
		if mask.NodeBlocked(det) {
			continue
		}
		if det == n {
			best = 0
			break
		}
		// Guided by the detector's healthy tree, not n's: one tree per
		// detector in the SPF cache, however many routers ask.
		if sw.RunFrom(det, n, mask) && sw.Dist(n) < best {
			best = sw.Dist(n)
		}
	}
	if math.IsInf(best, 1) {
		return eventsim.Infinity
	}
	return d.cfg.DetectionDelay + eventsim.Time(d.cfg.FloodFactor*best) + d.cfg.SPFCompute
}

// String describes the domain state.
func (d *Domain) String() string {
	return fmt.Sprintf("routing.Domain{nodes=%d cached=%d}", d.g.NumNodes(), d.g.SPFCacheOf().Len())
}
