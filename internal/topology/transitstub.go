package topology

import (
	"fmt"
	"math"

	"smrp/internal/graph"
)

// DomainKind distinguishes transit from stub domains in a transit–stub
// topology.
type DomainKind int

// Domain kinds. Enum starts at 1 so the zero value is invalid.
const (
	TransitDomain DomainKind = iota + 1
	StubDomain
)

// String implements fmt.Stringer.
func (k DomainKind) String() string {
	switch k {
	case TransitDomain:
		return "transit"
	case StubDomain:
		return "stub"
	default:
		return fmt.Sprintf("DomainKind(%d)", int(k))
	}
}

// Domain is one recovery domain of a transit–stub topology: a set of nodes
// plus the gateway that attaches the domain to the next level up. For the
// transit domain the gateway is its first node.
type Domain struct {
	ID      int
	Kind    DomainKind
	Nodes   []graph.NodeID
	Gateway graph.NodeID // node connecting this domain upward (stub→transit)
	Attach  graph.NodeID // transit node a stub domain is attached to (Invalid for transit)
}

// TransitStub is a 2-level transit–stub topology: one transit (core) domain
// with a stub domain hanging off each transit node. This is the structure
// the paper's hierarchical recovery architecture (Fig. 6) maps onto.
type TransitStub struct {
	Graph   *graph.Graph
	Transit Domain
	Stubs   []Domain
}

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
		if p.v <= 0 || p.v > 1 {
			return fmt.Errorf("transit-stub: %w: %s = %v out of (0, 1]", ErrBadConfig, p.name, p.v)
		}
	}
	if c.TransitExtent <= 0 || c.StubExtent <= 0 {
		return fmt.Errorf("transit-stub: %w: extents must be positive", ErrBadConfig)
	}
	return nil
}

// GenerateTransitStub builds a 2-level transit–stub topology. The transit
// nodes are wired as a dense Waxman graph over the full plane; each stub
// domain is a smaller Waxman graph placed near its attachment point and
// joined to it through the stub's gateway node. All domains are individually
// connected (Connectify is applied per domain).
func GenerateTransitStub(cfg TransitStubConfig, rng *RNG) (*TransitStub, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	total := cfg.TransitNodes + cfg.TransitNodes*cfg.StubsPerNode*cfg.StubNodes
	g := graph.New(total)
	next := 0
	newNode := func(p graph.Point) graph.NodeID {
		id := graph.NodeID(next)
		g.SetPos(id, p)
		next++
		return id
	}

	// Transit domain nodes spread over the full plane.
	transit := Domain{ID: 0, Kind: TransitDomain, Attach: graph.Invalid}
	for i := 0; i < cfg.TransitNodes; i++ {
		id := newNode(graph.Point{
			X: rng.Float64() * cfg.TransitExtent,
			Y: rng.Float64() * cfg.TransitExtent,
		})
		transit.Nodes = append(transit.Nodes, id)
	}
	transit.Gateway = transit.Nodes[0]
	if err := wireWaxman(g, transit.Nodes, cfg.TransitAlpha, cfg.Beta, rng); err != nil {
		return nil, fmt.Errorf("transit wiring: %w", err)
	}

	ts := &TransitStub{Graph: g, Transit: transit}

	// Stub domains, each clustered around its transit attachment.
	domainID := 1
	for _, attach := range transit.Nodes {
		for s := 0; s < cfg.StubsPerNode; s++ {
			center := g.Pos(attach)
			stub := Domain{ID: domainID, Kind: StubDomain, Attach: attach}
			domainID++
			for i := 0; i < cfg.StubNodes; i++ {
				id := newNode(graph.Point{
					X: center.X + (rng.Float64()-0.5)*cfg.StubExtent,
					Y: center.Y + (rng.Float64()-0.5)*cfg.StubExtent,
				})
				stub.Nodes = append(stub.Nodes, id)
			}
			if err := wireWaxman(g, stub.Nodes, cfg.StubAlpha, cfg.Beta, rng); err != nil {
				return nil, fmt.Errorf("stub %d wiring: %w", stub.ID, err)
			}
			// Gateway: the stub node geometrically closest to the attach
			// point, linked upward into the transit domain.
			stub.Gateway = nearestTo(g, stub.Nodes, center)
			if err := addDistEdge(g, stub.Gateway, attach); err != nil {
				return nil, fmt.Errorf("stub %d uplink: %w", stub.ID, err)
			}
			ts.Stubs = append(ts.Stubs, stub)
		}
	}
	return ts, nil
}

// wireWaxman adds Waxman-model edges among the given node subset and then
// joins any leftover components within the subset.
func wireWaxman(g *graph.Graph, nodes []graph.NodeID, alpha, beta float64, rng *RNG) error {
	maxDist := maxPairDist(g, nodes)
	if maxDist <= 0 {
		maxDist = 1
	}
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			d := g.Pos(nodes[i]).Dist(g.Pos(nodes[j]))
			p := alpha * waxmanExp(d, beta, maxDist)
			if rng.Float64() < p {
				if err := addDistEdge(g, nodes[i], nodes[j]); err != nil {
					return err
				}
			}
		}
	}
	return connectifySubset(g, nodes)
}

// waxmanExp computes exp(−d/(β·L)).
func waxmanExp(d, beta, l float64) float64 {
	return math.Exp(-d / (beta * l))
}

// connectifySubset joins the components induced by the node subset, adding
// geometric shortest edges, ignoring the rest of the graph.
func connectifySubset(g *graph.Graph, nodes []graph.NodeID) error {
	inSet := make(map[graph.NodeID]bool, len(nodes))
	for _, n := range nodes {
		inSet[n] = true
	}
	// Same large-subset escape hatch as Connectify: past the cap the exact
	// nearest-pair scan gives way to the deterministic centroid pick.
	if len(nodes) > connectifyExactCap {
		return joinComponentsCentroid(g, subsetComponents(g, nodes, inSet))
	}
	for {
		comps := subsetComponents(g, nodes, inSet)
		if len(comps) <= 1 {
			return nil
		}
		bestD := -1.0
		var bu, bv graph.NodeID = graph.Invalid, graph.Invalid
		for _, u := range comps[0] {
			for ci := 1; ci < len(comps); ci++ {
				for _, v := range comps[ci] {
					d := g.Pos(u).Dist(g.Pos(v))
					if bestD < 0 || d < bestD {
						bestD, bu, bv = d, u, v
					}
				}
			}
		}
		if bu == graph.Invalid {
			return fmt.Errorf("connectify subset: no joining pair")
		}
		if err := addDistEdge(g, bu, bv); err != nil {
			return err
		}
	}
}

// subsetComponents computes connected components restricted to the subset.
func subsetComponents(g *graph.Graph, nodes []graph.NodeID, inSet map[graph.NodeID]bool) [][]graph.NodeID {
	seen := make(map[graph.NodeID]bool, len(nodes))
	var comps [][]graph.NodeID
	for _, start := range nodes {
		if seen[start] {
			continue
		}
		var comp []graph.NodeID
		stack := []graph.NodeID{start}
		seen[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, arc := range g.Neighbors(u) {
				if !inSet[arc.To] || seen[arc.To] {
					continue
				}
				seen[arc.To] = true
				stack = append(stack, arc.To)
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// nearestTo returns the node of the subset closest to point p.
func nearestTo(g *graph.Graph, nodes []graph.NodeID, p graph.Point) graph.NodeID {
	best := nodes[0]
	bestD := g.Pos(best).Dist(p)
	for _, n := range nodes[1:] {
		if d := g.Pos(n).Dist(p); d < bestD {
			best, bestD = n, d
		}
	}
	return best
}

// maxPairDist returns the maximum pairwise distance within the subset.
func maxPairDist(g *graph.Graph, nodes []graph.NodeID) float64 {
	var maxD float64
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if d := g.Pos(nodes[i]).Dist(g.Pos(nodes[j])); d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}

// DomainOf returns the domain containing node n (transit checked first), or
// nil if n belongs to no domain of ts.
func (ts *TransitStub) DomainOf(n graph.NodeID) *Domain {
	for _, t := range ts.Transit.Nodes {
		if t == n {
			return &ts.Transit
		}
	}
	for i := range ts.Stubs {
		for _, m := range ts.Stubs[i].Nodes {
			if m == n {
				return &ts.Stubs[i]
			}
		}
	}
	return nil
}

// NLevel views ts as the two-level NLevelTopology it is: domain 0 is the
// transit core and domain i is Stubs[i-1], which is how Domain.ID is already
// numbered. The graph and the node slices are shared with ts, not copied.
func (ts *TransitStub) NLevel() *NLevelTopology {
	t := &NLevelTopology{Graph: ts.Graph, domainOf: make([]int32, ts.Graph.NumNodes())}
	for n := range t.domainOf {
		t.domainOf[n] = -1
	}
	t.Domains = append(t.Domains, NLevelDomain{
		Nodes: ts.Transit.Nodes, Gateway: ts.Transit.Gateway, Attach: graph.Invalid, Parent: -1,
	})
	for i, d := range ts.Stubs {
		t.Domains[0].Children = append(t.Domains[0].Children, i+1)
		t.Domains = append(t.Domains, NLevelDomain{
			ID: i + 1, Level: 1, Nodes: d.Nodes, Gateway: d.Gateway, Attach: d.Attach, Parent: 0,
		})
	}
	for i, d := range t.Domains {
		for _, n := range d.Nodes {
			t.domainOf[n] = int32(i)
		}
	}
	return t
}
