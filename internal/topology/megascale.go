package topology

import (
	"fmt"
	"math"
	"sort"

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

// Validate reports whether the configuration is usable: the hierarchy's
// shape is checked as NLevelConfig checks it, TargetNodes must hold at least
// one domain per level, and the tree that reaches it must fit maxNodes.
func (c MegascaleConfig) Validate() error {
	c = c.withDefaults()
	if err := c.shape(1).check("megascale"); err != nil {
		return err
	}
	if c.TargetNodes < c.NodesPerDomain*c.Levels {
		return fmt.Errorf("megascale: %w: TargetNodes = %d too small for %d levels of %d-node domains",
			ErrBadConfig, c.TargetNodes, c.Levels, c.NodesPerDomain)
	}
	if _, ok := c.fanoutFor(); !ok {
		return fmt.Errorf("megascale: %w: no %d-level tree of %d-node domains reaches TargetNodes = %d within %d nodes",
			ErrBadConfig, c.Levels, c.NodesPerDomain, c.TargetNodes, maxNodes)
	}
	return nil
}

// shape returns the NLevelConfig of c's hierarchy at the given fanout.
func (c MegascaleConfig) shape(fanout int) NLevelConfig {
	return NLevelConfig{
		Levels: c.Levels, Fanout: fanout, NodesPerDomain: c.NodesPerDomain,
		Alpha: c.Alpha, Beta: c.Beta, Extent: c.Extent, Shrink: c.Shrink,
	}
}

// fanoutFor picks the smallest fanout whose complete tree reaches the
// domain-count target, or false when that tree exceeds maxNodes. The domain
// count grows with the fanout, so a binary search finds it.
func (c MegascaleConfig) fanoutFor() (int, bool) {
	c = c.withDefaults()
	if c.TargetNodes > maxNodes {
		return 0, false
	}
	wantDomains := (c.TargetNodes + c.NodesPerDomain - 1) / c.NodesPerDomain
	f := 1 + sort.Search(wantDomains, func(i int) bool {
		d, ok := treeDomains(i+1, c.Levels, c.NodesPerDomain)
		return !ok || d >= wantDomains
	})
	_, ok := treeDomains(f, c.Levels, c.NodesPerDomain)
	return f, ok
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
	fanout, _ := cfg.fanoutFor()
	t, err := buildTree(cfg.shape(fanout), func(id int) *RNG {
		// Independent per-domain stream: the golden-ratio stride decorrelates
		// consecutive domain IDs before the splitmix finalizer.
		return NewRNG(mixSplit(seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15))
	}, true)
	if err != nil {
		return nil, fmt.Errorf("megascale: %w", err)
	}
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
	return GridWaxman(cfg, NewRNG(seed))
}
