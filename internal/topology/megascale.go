package topology

import (
	"fmt"
	"math"

	"smrp/internal/graph"
)

// MegascaleConfig parameterizes the megascale N-level composer: a hierarchy
// sized by total node count rather than by explicit fanout, every domain
// built independently from its own derived seed. The result is an
// NLevelTopology, so the §3.3.3 hierarchical recovery layer runs on it
// unchanged.
type MegascaleConfig struct {
	// TargetNodes is the approximate total size. The composer picks the
	// fanout whose complete Levels-deep tree of NodesPerDomain-node domains
	// lands closest to (and not far below) this target.
	TargetNodes int
	// NodesPerDomain is the size of every domain (default 100 — the paper's
	// evaluation scale, which is the whole point: per-event recovery work
	// confined to one paper-sized domain regardless of total N).
	NodesPerDomain int
	// Levels is the hierarchy depth (default 3).
	Levels int
	// Alpha/Beta are the intra-domain Waxman parameters (defaults 0.9/0.6,
	// matching DefaultNLevelConfig: dense enough that domains keep path
	// diversity at small extents).
	Alpha, Beta float64
	// Extent is the root placement square side (default 1); each level down
	// shrinks by Shrink (default 0.35).
	Extent, Shrink float64
}

// withDefaults resolves zero-valued optional fields.
func (c MegascaleConfig) withDefaults() MegascaleConfig {
	if c.NodesPerDomain == 0 {
		c.NodesPerDomain = 100
	}
	if c.Levels == 0 {
		c.Levels = 3
	}
	if c.Alpha == 0 {
		c.Alpha = 0.9
	}
	if c.Beta == 0 {
		c.Beta = 0.6
	}
	if c.Extent == 0 {
		c.Extent = 1
	}
	if c.Shrink == 0 {
		c.Shrink = 0.35
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c MegascaleConfig) Validate() error {
	c = c.withDefaults()
	if c.NodesPerDomain < 2 {
		return fmt.Errorf("megascale: %w: NodesPerDomain = %d, need at least 2", ErrBadConfig, c.NodesPerDomain)
	}
	if c.Levels < 2 {
		return fmt.Errorf("megascale: %w: Levels = %d, need at least 2", ErrBadConfig, c.Levels)
	}
	if c.TargetNodes < c.NodesPerDomain*c.Levels {
		return fmt.Errorf("megascale: %w: TargetNodes = %d too small for %d levels of %d-node domains",
			ErrBadConfig, c.TargetNodes, c.Levels, c.NodesPerDomain)
	}
	if c.Alpha <= 0 || c.Alpha > 1 || c.Beta <= 0 || c.Beta > 1 {
		return fmt.Errorf("megascale: %w: Waxman parameters out of (0, 1]", ErrBadConfig)
	}
	if c.Extent <= 0 || c.Shrink <= 0 || c.Shrink >= 1 {
		return fmt.Errorf("megascale: %w: need Extent > 0 and Shrink in (0, 1)", ErrBadConfig)
	}
	return nil
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

// fanoutFor picks the smallest fanout whose complete tree reaches the
// domain-count target (so the realized size is ≥ target/overshoot-free it is
// the first fanout meeting the target).
func (c MegascaleConfig) fanoutFor() int {
	c = c.withDefaults()
	wantDomains := (c.TargetNodes + c.NodesPerDomain - 1) / c.NodesPerDomain
	f := 1
	for domainTreeSize(f, c.Levels) < wantDomains {
		f++
	}
	return f
}

// GenerateMegascale builds an N-level hierarchy sized to cfg.TargetNodes.
// Unlike GenerateNLevel's single RNG stream, every domain draws placement and
// wiring from its own RNG seeded by mix(seed, domainID): domains are fully
// independent of construction order (and of each other), there is no global
// O(N²) step anywhere — per-domain Waxman wiring is O(d²) with d =
// NodesPerDomain, so the whole build is O(N·d) — and the dense domainOf index
// keeps recovery attribution an array load.
func GenerateMegascale(cfg MegascaleConfig, seed uint64) (*NLevelTopology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	fanout := cfg.fanoutFor()
	totalDomains := domainTreeSize(fanout, cfg.Levels)

	g := graph.New(totalDomains * cfg.NodesPerDomain)
	t := &NLevelTopology{
		Graph:    g,
		Root:     0,
		domainOf: make([]int32, g.NumNodes()),
	}

	next := 0
	type job struct {
		parent int
		attach graph.NodeID
		level  int
		center graph.Point
		extent float64
	}
	queue := []job{{
		parent: -1,
		attach: graph.Invalid,
		level:  0,
		center: graph.Point{X: cfg.Extent / 2, Y: cfg.Extent / 2},
		extent: cfg.Extent,
	}}
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		id := len(t.Domains)
		// Independent per-domain stream: the golden-ratio stride decorrelates
		// consecutive domain IDs before the splitmix finalizer.
		rng := NewRNG(mixSplit(seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15))

		nodes := make([]graph.NodeID, cfg.NodesPerDomain)
		for i := range nodes {
			n := graph.NodeID(next)
			next++
			g.SetPos(n, graph.Point{
				X: j.center.X + (rng.Float64()-0.5)*j.extent,
				Y: j.center.Y + (rng.Float64()-0.5)*j.extent,
			})
			nodes[i] = n
			t.domainOf[n] = int32(id)
		}
		if err := wireWaxman(g, nodes, cfg.Alpha, cfg.Beta, rng); err != nil {
			return nil, fmt.Errorf("megascale: domain %d wiring: %w", id, err)
		}
		d := NLevelDomain{
			ID:     id,
			Level:  j.level,
			Nodes:  nodes,
			Parent: j.parent,
			Attach: j.attach,
		}
		if j.parent == -1 {
			d.Gateway = nodes[0]
		} else {
			d.Gateway = nearestTo(g, nodes, g.Pos(j.attach))
			if err := addDistEdge(g, d.Gateway, j.attach); err != nil {
				return nil, fmt.Errorf("megascale: domain %d uplink: %w", id, err)
			}
			t.Domains[j.parent].Children = append(t.Domains[j.parent].Children, id)
		}
		t.Domains = append(t.Domains, d)

		if j.level+1 < cfg.Levels {
			for c := 0; c < fanout; c++ {
				attach := nodes[(c+1)%len(nodes)]
				queue = append(queue, job{
					parent: id,
					attach: attach,
					level:  j.level + 1,
					center: g.Pos(attach),
					extent: j.extent * cfg.Shrink,
				})
			}
		}
	}
	// The composed hierarchy is immutable from here on (sessions mutate trees
	// and masks, never the topology), so freeze it: the rows are re-packed
	// without their append slack and sorted by weight for the sweeps.
	g.Freeze()
	return t, nil
}

// megascaleFlatDensity is the node density (nodes per unit area) of the flat
// megascale plane. With the megascale Waxman parameters (α=0.9, β=0.6,
// L=√2) it yields average degrees in the ≈5–6 range — comparable to the
// hierarchy's intra-domain density — independent of N, because the plane
// grows with √N while the interaction radius stays fixed.
const megascaleFlatDensity = 1.5

// FlatMegascale generates the flat control arm of the megascale study: n
// nodes on a constant-density plane wired by the truncated grid Waxman model
// with the same α/β the hierarchy uses per domain, connectified. Total
// generation cost is O(N·avg-degree).
func FlatMegascale(n int, seed uint64) (*graph.Graph, GridStats, error) {
	cfg := GridWaxmanConfig{
		N:               n,
		Alpha:           0.9,
		Beta:            0.6,
		Side:            math.Sqrt(float64(n) / megascaleFlatDensity),
		L:               math.Sqrt2,
		EnsureConnected: true,
	}
	g, st, err := GridWaxman(cfg, NewRNG(seed))
	if err != nil {
		return nil, st, err
	}
	// Megascale graphs are never mutated after generation; freeze so the
	// flat arm's standing graph is the packed steady state the study reports.
	return g.Freeze(), st, nil
}
