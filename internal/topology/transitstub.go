package topology

import (
	"fmt"
	"math"

	"smrp/internal/graph"
)

// TransitStubConfig parameterizes the 2-level generator.
type TransitStubConfig struct {
	TransitNodes  int     // nodes in the transit (core) domain
	StubsPerNode  int     // stub domains attached to each transit node
	StubNodes     int     // nodes per stub domain
	TransitAlpha  float64 // Waxman alpha for intra-transit wiring
	StubAlpha     float64 // Waxman alpha for intra-stub wiring
	Beta          float64 // shared Waxman beta
	TransitExtent float64 // side length of the transit placement square
	StubExtent    float64 // side length of each stub placement square
}

// DefaultTransitStubConfig returns the configuration used by the
// hierarchical experiments: a 4-node core, one 12-node stub per core node.
// Beta is larger than the flat-Waxman default because inside a stub the
// placement extent is small, so a higher β is needed to keep intra-domain
// path diversity (without it, stubs degenerate into trees and single link
// failures become unrecoverable inside the domain).
func DefaultTransitStubConfig() TransitStubConfig {
	return TransitStubConfig{
		TransitNodes:  4,
		StubsPerNode:  1,
		StubNodes:     12,
		TransitAlpha:  0.9,
		StubAlpha:     0.9,
		Beta:          0.6,
		TransitExtent: 1.0,
		StubExtent:    0.25,
	}
}

// Validate reports whether the configuration is usable.
func (c TransitStubConfig) Validate() error {
	if c.TransitNodes < 2 {
		return fmt.Errorf("transit-stub: %w: TransitNodes = %d, need at least 2", ErrBadConfig, c.TransitNodes)
	}
	if c.StubsPerNode < 1 {
		return fmt.Errorf("transit-stub: %w: StubsPerNode = %d, need at least 1", ErrBadConfig, c.StubsPerNode)
	}
	if c.StubNodes < 2 {
		return fmt.Errorf("transit-stub: %w: StubNodes = %d, need at least 2", ErrBadConfig, c.StubNodes)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{name: "TransitAlpha", v: c.TransitAlpha},
		{name: "StubAlpha", v: c.StubAlpha},
		{name: "Beta", v: c.Beta},
	} {
		if !inRange(p.v, 0, 1) {
			return fmt.Errorf("transit-stub: %w: %s = %v out of (0, 1]", ErrBadConfig, p.name, p.v)
		}
	}
	if !inRange(c.TransitExtent, 0, math.MaxFloat64) || !inRange(c.StubExtent, 0, math.MaxFloat64) {
		return fmt.Errorf("transit-stub: %w: extents must be positive and finite", ErrBadConfig)
	}
	if _, _, ok := c.size(); !ok {
		return fmt.Errorf("transit-stub: %w: more than %d nodes", ErrBadConfig, maxNodes)
	}
	return nil
}

// size returns the number of stub domains and of nodes c describes, or
// false when the nodes would exceed maxNodes.
func (c TransitStubConfig) size() (stubs, nodes int, ok bool) {
	stubs, ok = mulNodes(c.TransitNodes, c.StubsPerNode)
	if ok {
		nodes, ok = mulNodes(stubs, c.StubNodes)
	}
	if !ok || nodes > maxNodes-c.TransitNodes {
		return 0, 0, false
	}
	return stubs, c.TransitNodes + nodes, true
}

// GenerateTransitStub builds the two-level hierarchy the paper's recovery
// architecture (Fig. 6) maps onto. Domain 0 is the transit core, a Waxman
// graph over the full plane; domain i ≥ 1 is a stub, a smaller Waxman graph
// placed around its transit attach node and linked to it through the stub
// node nearest that node. Each transit node carries StubsPerNode stubs, in
// transit-node order. Every domain is individually connected.
func GenerateTransitStub(cfg TransitStubConfig, rng *RNG) (*NLevelTopology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	stubs, n, _ := cfg.size()
	b := newBuilder(n, 1+stubs)
	// The core is drawn as rng·extent, not through place: centre ±
	// half-extent rounds differently for some extents, and the generated
	// topologies are pinned.
	core := b.ids[:cfg.TransitNodes:cfg.TransitNodes]
	for _, node := range core {
		b.t.Graph.SetPos(node, graph.Point{
			X: rng.Float64() * cfg.TransitExtent,
			Y: rng.Float64() * cfg.TransitExtent,
		})
	}
	b.addDomain(core, -1, graph.Invalid)
	var ws wireScratch
	b.wire(0, cfg.TransitAlpha, cfg.Beta, rng, &ws)
	next := len(core)
	for _, attach := range core {
		for s := 0; s < cfg.StubsPerNode; s++ {
			stub := b.place(next, cfg.StubNodes, b.t.Graph.Pos(attach), cfg.StubExtent, rng)
			next += len(stub)
			b.addDomain(stub, 0, attach)
			b.wire(len(b.t.Domains)-1, cfg.StubAlpha, cfg.Beta, rng, &ws)
		}
	}
	t, err := b.finish()
	if err != nil {
		return nil, fmt.Errorf("transit-stub: %w", err)
	}
	return t, nil
}
