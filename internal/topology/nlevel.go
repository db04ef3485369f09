package topology

import (
	"fmt"
	"math"

	"smrp/internal/graph"
)

// NLevelConfig parameterizes the recursive N-level hierarchical generator —
// the generalization of the 2-level transit–stub model that §3.3.3 of the
// paper says the recovery architecture extends to.
type NLevelConfig struct {
	// Levels is the hierarchy depth (2 reproduces transit–stub).
	Levels int
	// Fanout is the number of child domains attached to each domain.
	Fanout int
	// NodesPerDomain is the size of every domain at every level.
	NodesPerDomain int
	// Alpha/Beta are the Waxman parameters used inside every domain.
	Alpha, Beta float64
	// Extent is the placement square of the top domain; each level down
	// shrinks by Shrink.
	Extent, Shrink float64
}

// DefaultNLevelConfig returns a 3-level hierarchy of 8-node domains with 2
// child domains per domain: 1 + 2 + 4 domains, 56 nodes.
func DefaultNLevelConfig() NLevelConfig {
	return NLevelConfig{
		Levels:         3,
		Fanout:         2,
		NodesPerDomain: 8,
		Alpha:          0.9,
		Beta:           0.6,
		Extent:         1.0,
		Shrink:         0.35,
	}
}

// Validate reports whether the configuration is usable.
func (c NLevelConfig) Validate() error { return c.check("nlevel") }

// check validates c, naming the generator as who in its errors.
// MegascaleConfig.Validate shares it for the shape the two have in common.
func (c NLevelConfig) check(who string) error {
	if c.Levels < 2 {
		return fmt.Errorf("%s: %w: Levels = %d, need at least 2", who, ErrBadConfig, c.Levels)
	}
	if c.Fanout < 1 {
		return fmt.Errorf("%s: %w: Fanout = %d, need at least 1", who, ErrBadConfig, c.Fanout)
	}
	if c.NodesPerDomain < 2 {
		return fmt.Errorf("%s: %w: NodesPerDomain = %d, need at least 2", who, ErrBadConfig, c.NodesPerDomain)
	}
	if !inRange(c.Alpha, 0, 1) || !inRange(c.Beta, 0, 1) {
		return fmt.Errorf("%s: %w: Waxman parameters out of (0, 1]", who, ErrBadConfig)
	}
	if !inRange(c.Extent, 0, math.MaxFloat64) || !inRange(c.Shrink, 0, 1) || c.Shrink == 1 {
		return fmt.Errorf("%s: %w: need finite Extent > 0 and Shrink in (0, 1)", who, ErrBadConfig)
	}
	return nil
}

// NLevelDomain is one recovery domain in an N-level hierarchy.
type NLevelDomain struct {
	ID    int
	Level int // 0 = root/core
	Nodes []graph.NodeID
	// Gateway is this domain's uplink node (equal to Nodes[...]; for the
	// root domain it is its first node and carries no uplink edge).
	Gateway graph.NodeID
	// Attach is the parent-domain node the gateway links to (Invalid for
	// the root).
	Attach graph.NodeID
	// Parent/Children index into NLevelTopology.Domains (-1 for the root's
	// parent).
	Parent   int
	Children []int
}

// NLevelTopology is a full N-level hierarchical network.
type NLevelTopology struct {
	Graph   *graph.Graph
	Domains []NLevelDomain // Domains[0] is the root, at level 0
	// domainOf maps every node to its owning domain index, densely indexed
	// by NodeID (node IDs are 0..NumNodes-1 by construction). At megascale a
	// map here would cost ~50 bytes/node and a hash per recovery-attribution
	// lookup; the dense slice is 4 bytes/node and an array load.
	domainOf []int32
}

// DomainOf returns the index of the domain owning node n, or -1.
func (t *NLevelTopology) DomainOf(n graph.NodeID) int {
	if n < 0 || int(n) >= len(t.domainOf) {
		return -1
	}
	return int(t.domainOf[n])
}

// GenerateNLevel builds the hierarchy: the root domain is a Waxman graph
// over the full extent; each domain spawns Fanout child domains, placed near
// their attachment nodes with a shrunken extent, each joined upward through
// its gateway. Every domain is internally connected. All domains draw from
// the one stream rng, in breadth-first order.
func GenerateNLevel(cfg NLevelConfig, rng *RNG) (*NLevelTopology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t, err := buildTree(cfg, func(int) *RNG { return rng })
	if err != nil {
		return nil, fmt.Errorf("nlevel: %w", err)
	}
	return t, nil
}

// buildTree grows the complete hierarchy cfg describes, breadth first:
// domain 0 is centred on the extent square, and the c-th child of a domain
// is centred on that domain's node c+1 (mod its size), which it attaches to,
// with the parent's extent times Shrink. Domain id draws its placement and
// wiring from rngOf(id).
func buildTree(cfg NLevelConfig, rngOf func(id int) *RNG) (*NLevelTopology, error) {
	t := newHierarchy(domainTreeSize(cfg.Fanout, cfg.Levels) * cfg.NodesPerDomain)
	type job struct {
		parent int // domain index; -1 for the root
		attach graph.NodeID
		center graph.Point
		extent float64
	}
	queue := []job{{
		parent: -1,
		attach: graph.Invalid,
		center: graph.Point{X: cfg.Extent / 2, Y: cfg.Extent / 2},
		extent: cfg.Extent,
	}}
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		id := len(t.Domains)
		rng := rngOf(id)
		nodes := t.place(id*cfg.NodesPerDomain, cfg.NodesPerDomain, j.center, j.extent, rng)
		if err := t.addDomain(nodes, j.parent, j.attach, cfg.Alpha, cfg.Beta, rng); err != nil {
			return nil, err
		}
		if t.Domains[id].Level+1 == cfg.Levels {
			continue
		}
		for c := 0; c < cfg.Fanout; c++ {
			attach := nodes[(c+1)%len(nodes)]
			queue = append(queue, job{
				parent: id,
				attach: attach,
				center: t.Graph.Pos(attach),
				extent: j.extent * cfg.Shrink,
			})
		}
	}
	return t, nil
}

// domainTreeSize returns 1 + f + f² + … + f^(levels−1).
func domainTreeSize(fanout, levels int) int {
	total, pow := 0, 1
	for l := 0; l < levels; l++ {
		total += pow
		pow *= fanout
	}
	return total
}

// newHierarchy returns a hierarchy of n unplaced, unwired nodes and no
// domains.
func newHierarchy(n int) *NLevelTopology {
	return &NLevelTopology{Graph: graph.New(n), domainOf: make([]int32, n)}
}

// place positions the count nodes from ID first on, uniformly over the
// extent-sided square centred on center, X then Y from rng, and returns them.
func (t *NLevelTopology) place(first, count int, center graph.Point, extent float64, rng *RNG) []graph.NodeID {
	nodes := make([]graph.NodeID, count)
	for i := range nodes {
		nodes[i] = graph.NodeID(first + i)
		t.Graph.SetPos(nodes[i], graph.Point{
			X: center.X + (rng.Float64()-0.5)*extent,
			Y: center.Y + (rng.Float64()-0.5)*extent,
		})
	}
	return nodes
}

// addDomain makes the placed nodes domain len(t.Domains), a child of domain
// parent (-1 for the root). It wires them as a Waxman graph from rng,
// connectified, and picks the gateway: the node nearest attach, linked to it,
// or for the root its first node, which has no uplink.
func (t *NLevelTopology) addDomain(nodes []graph.NodeID, parent int, attach graph.NodeID, alpha, beta float64, rng *RNG) error {
	g, id := t.Graph, len(t.Domains)
	if err := wireWaxman(g, nodes, alpha, beta, rng); err != nil {
		return fmt.Errorf("domain %d wiring: %w", id, err)
	}
	d := NLevelDomain{ID: id, Nodes: nodes, Gateway: nodes[0], Attach: attach, Parent: parent}
	if parent >= 0 {
		d.Level = t.Domains[parent].Level + 1
		d.Gateway = nearestTo(g, nodes, g.Pos(attach))
		if err := addDistEdge(g, d.Gateway, attach); err != nil {
			return fmt.Errorf("domain %d uplink: %w", id, err)
		}
		t.Domains[parent].Children = append(t.Domains[parent].Children, id)
	}
	for _, n := range nodes {
		t.domainOf[n] = int32(id)
	}
	t.Domains = append(t.Domains, d)
	return nil
}

// Leaves returns the indices of the deepest-level domains.
func (t *NLevelTopology) Leaves() []int {
	maxLevel := 0
	for _, d := range t.Domains {
		if d.Level > maxLevel {
			maxLevel = d.Level
		}
	}
	var out []int
	for _, d := range t.Domains {
		if d.Level == maxLevel {
			out = append(out, d.ID)
		}
	}
	return out
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
