package topology

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	if _, ok := treeDomains(c.Fanout, c.Levels, c.NodesPerDomain); !ok {
		return fmt.Errorf("%s: %w: %d levels of fanout %d make more than %d nodes of %d-node domains",
			who, ErrBadConfig, c.Levels, c.Fanout, maxNodes, c.NodesPerDomain)
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
	t, err := buildTree(cfg, func(int) *RNG { return rng }, false)
	if err != nil {
		return nil, fmt.Errorf("nlevel: %w", err)
	}
	return t, nil
}

// buildTree grows the complete hierarchy cfg describes, breadth first:
// domain 0 is centred on the extent square, and the c-th child of a domain
// is centred on that domain's node c+1 (mod its size), which it attaches to,
// with the parent's extent times Shrink. Domain id draws its placement and
// then its wiring from rngOf(id); ownStreams says that no two ids share a
// stream.
func buildTree(cfg NLevelConfig, rngOf func(id int) *RNG, ownStreams bool) (*NLevelTopology, error) {
	domains, _ := treeDomains(cfg.Fanout, cfg.Levels, cfg.NodesPerDomain)
	b := newBuilder(domains*cfg.NodesPerDomain, domains)
	type job struct {
		parent int // domain index; -1 for the root
		attach graph.NodeID
		center graph.Point
		extent float64
	}
	queue := make([]job, 0, domains)
	queue = append(queue, job{
		parent: -1,
		attach: graph.Invalid,
		center: graph.Point{X: cfg.Extent / 2, Y: cfg.Extent / 2},
		extent: cfg.Extent,
	})
	var streams []*RNG
	var s wireScratch
	for id := 0; id < len(queue); id++ {
		j := queue[id]
		rng := rngOf(id)
		nodes := b.place(id*cfg.NodesPerDomain, cfg.NodesPerDomain, j.center, j.extent, rng)
		b.addDomain(nodes, j.parent, j.attach)
		// A child is centred on its attach node's position, so placement
		// runs here, breadth first. Wiring reads only the domain's own
		// positions and stream: with a stream per domain it waits for the
		// workers, but on one shared stream the next domain's placement
		// draws after this domain's wiring, so it runs now.
		if ownStreams {
			streams = append(streams, rng)
		} else {
			b.wire(id, cfg.Alpha, cfg.Beta, rng, &s)
		}
		if b.t.Domains[id].Level+1 == cfg.Levels {
			continue
		}
		b.t.Domains[id].Children = make([]int, 0, cfg.Fanout)
		for c := 0; c < cfg.Fanout; c++ {
			attach := nodes[(c+1)%len(nodes)]
			queue = append(queue, job{
				parent: id,
				attach: attach,
				center: b.g.Pos(attach),
				extent: j.extent * cfg.Shrink,
			})
		}
	}
	if ownStreams {
		b.wireAll(streams, cfg.Alpha, cfg.Beta)
	}
	return b.finish()
}

// maxNodes is the most nodes a generated topology may have: further down
// the stack node IDs are stored in 32 bits (graph's far ends and radix queue
// slots, multicast's tree columns).
const maxNodes = math.MaxInt32

// mulNodes returns a·b for a, b ≥ 1, or false when it exceeds maxNodes.
func mulNodes(a, b int) (int, bool) {
	if a > maxNodes/b {
		return 0, false
	}
	return a * b, true
}

// treeDomains returns the domain count 1 + f + f² + … + f^(levels−1) of the
// complete hierarchy, or false when its perDomain-node domains would exceed
// maxNodes (fanout, levels, perDomain ≥ 1).
func treeDomains(fanout, levels, perDomain int) (int, bool) {
	if levels > maxNodes/perDomain {
		return 0, false
	}
	total, pow := 1, 1
	for l := 1; l < levels && total <= maxNodes/perDomain; l++ {
		var ok bool
		if pow, ok = mulNodes(pow, fanout); !ok {
			return 0, false
		}
		total += pow
	}
	return total, total <= maxNodes/perDomain
}

// builder assembles a hierarchy in phases (DESIGN.md §4.1): the domains are
// placed and recorded, each is wired into an edge buffer of its own, and
// finish inserts the buffers into rows reserved at their final size and
// freezes the graph.
type builder struct {
	t *NLevelTopology
	// g is the graph being built, t.Graph once finished.
	g *graph.Builder
	// ids holds every node ID once; each domain's Nodes is a window of it.
	ids []graph.NodeID
	// wired[id] is domain id's edges in insertion order, until finish
	// inserts them.
	wired [][]pair
}

// pair is one intra-domain edge, its endpoints named by their index in the
// domain's Nodes.
type pair struct{ u, v int32 }

// newBuilder returns a builder of n unplaced nodes with room for the given
// number of domains.
func newBuilder(n, domains int) *builder {
	b := &builder{
		t:     &NLevelTopology{Domains: make([]NLevelDomain, 0, domains), domainOf: make([]int32, n)},
		g:     graph.New(n),
		ids:   make([]graph.NodeID, n),
		wired: make([][]pair, 0, domains),
	}
	for i := range b.ids {
		b.ids[i] = graph.NodeID(i)
	}
	return b
}

// place positions the count nodes from ID first on, uniformly over the
// extent-sided square centred on center, X then Y from rng, and returns them.
func (b *builder) place(first, count int, center graph.Point, extent float64, rng *RNG) []graph.NodeID {
	nodes := b.ids[first : first+count : first+count]
	for _, n := range nodes {
		b.g.SetPos(n, graph.Point{
			X: center.X + (rng.Float64()-0.5)*extent,
			Y: center.Y + (rng.Float64()-0.5)*extent,
		})
	}
	return nodes
}

// addDomain makes the placed nodes domain len(Domains), a child of domain
// parent (-1 for the root), and picks its gateway: the node nearest attach,
// or for the root its first node, which has no uplink.
func (b *builder) addDomain(nodes []graph.NodeID, parent int, attach graph.NodeID) {
	t := b.t
	id := len(t.Domains)
	d := NLevelDomain{ID: id, Nodes: nodes, Gateway: nodes[0], Attach: attach, Parent: parent}
	if parent >= 0 {
		d.Level = t.Domains[parent].Level + 1
		d.Gateway = nearestTo(b.g.Pos, nodes, b.g.Pos(attach))
		t.Domains[parent].Children = append(t.Domains[parent].Children, id)
	}
	for _, n := range nodes {
		t.domainOf[n] = int32(id)
	}
	t.Domains = append(t.Domains, d)
	b.wired = append(b.wired, nil)
}

// wire draws domain id's edges from rng into its buffer (see
// wireScratch.wire). It reads positions only, so domains with streams of
// their own may be wired concurrently.
func (b *builder) wire(id int, alpha, beta float64, rng *RNG, s *wireScratch) {
	s.pts = s.pts[:0]
	for _, n := range b.t.Domains[id].Nodes {
		s.pts = append(s.pts, b.g.Pos(n))
	}
	b.wired[id] = s.wire(alpha, beta, rng)
}

// wireAll wires every domain, domain id from streams[id], on up to
// GOMAXPROCS workers. A domain's edges depend on its positions and stream
// alone, so the worker count cannot change them.
func (b *builder) wireAll(streams []*RNG, alpha, beta float64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(streams)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s wireScratch
			for id := int(next.Add(1)) - 1; id < len(streams); id = int(next.Add(1)) - 1 {
				b.wire(id, alpha, beta, streams[id], &s)
			}
		}()
	}
	wg.Wait()
}

// finish inserts the edges, domain by domain, each domain's wiring and then
// its uplink, into rows reserved at their final size: intra-domain degree,
// plus the uplink, plus one arc per child. Each buffer is dropped once
// copied. Freeze then sorts the rows where they lie.
func (b *builder) finish() (*NLevelTopology, error) {
	t, g := b.t, b.g
	extra := make([]int32, g.NumNodes())
	for id, d := range t.Domains {
		for _, e := range b.wired[id] {
			extra[d.Nodes[e.u]]++
			extra[d.Nodes[e.v]]++
		}
		if d.Parent >= 0 {
			extra[d.Gateway]++
			extra[d.Attach]++
		}
	}
	g.Reserve(extra)
	for id, d := range t.Domains {
		for _, e := range b.wired[id] {
			if err := addDistEdge(g, d.Nodes[e.u], d.Nodes[e.v]); err != nil {
				return nil, fmt.Errorf("domain %d wiring: %w", id, err)
			}
		}
		b.wired[id] = nil
		if d.Parent >= 0 {
			if err := addDistEdge(g, d.Gateway, d.Attach); err != nil {
				return nil, fmt.Errorf("domain %d uplink: %w", id, err)
			}
		}
	}
	t.Graph = g.Freeze()
	return t, nil
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

// wireScratch is one worker's reusable space for wiring domains.
type wireScratch struct {
	pts   []graph.Point
	edges []pair
	root  []int32
}

// wire draws the Waxman edges among the domain placed at s.pts, testing the
// pairs i < j in order against rng, and joins the domain's components: by
// the nearest pair between the first component and the rest, one edge at a
// time, or past connectifyExactCap nodes by one centroid pass. It returns the
// edges in insertion order, in a buffer of exactly their size.
func (s *wireScratch) wire(alpha, beta float64, rng *RNG) []pair {
	pts := s.pts
	maxDist := maxPairDist(pts)
	if maxDist <= 0 {
		maxDist = 1
	}
	s.edges = s.edges[:0]
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			p := alpha * waxmanExp(pts[i].Dist(pts[j]), beta, maxDist)
			if rng.Float64() < p {
				s.edges = append(s.edges, pair{int32(i), int32(j)})
			}
		}
	}
	if !s.connected() {
		pos := func(n graph.NodeID) graph.Point { return pts[n] }
		link := func(u, v graph.NodeID) error {
			s.edges = append(s.edges, pair{int32(u), int32(v)})
			return nil
		}
		if len(pts) > connectifyExactCap {
			_ = joinComponentsCentroid(s.components(), pos, link) // link cannot fail
		} else {
			for comps := s.components(); len(comps) > 1; comps = s.components() {
				_ = link(nearestPair(comps, pos))
			}
		}
	}
	return slices.Clone(s.edges)
}

// waxmanExp computes exp(−d/(β·L)).
func waxmanExp(d, beta, l float64) float64 {
	return math.Exp(-d / (beta * l))
}

// connected reports, by union-find over s.edges, whether they connect all
// the domain's nodes.
func (s *wireScratch) connected() bool {
	s.root = s.root[:0]
	for i := range s.pts {
		s.root = append(s.root, int32(i))
	}
	find := func(x int32) int32 {
		for s.root[x] != x {
			s.root[x] = s.root[s.root[x]]
			x = s.root[x]
		}
		return x
	}
	comps := len(s.pts)
	for _, e := range s.edges {
		if a, b := find(e.u), find(e.v); a != b {
			s.root[a] = b
			comps--
		}
	}
	return comps == 1
}

// components lists the domain's connected components under s.edges, named
// by node index: a depth-first search from each unseen node in index order,
// neighbours taken in insertion order, which is the order the builder's rows
// would hold them in.
func (s *wireScratch) components() [][]graph.NodeID {
	adj := make([][]int32, len(s.pts))
	for _, e := range s.edges {
		adj[e.u] = append(adj[e.u], e.v)
		adj[e.v] = append(adj[e.v], e.u)
	}
	seen := make([]bool, len(s.pts))
	var comps [][]graph.NodeID
	for root := range seen {
		if seen[root] {
			continue
		}
		var comp []graph.NodeID
		stack := []int32{int32(root)}
		seen[root] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, graph.NodeID(u))
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// nearestPair returns the closest pair of nodes between the first component
// and any other, the first found winning ties.
func nearestPair(comps [][]graph.NodeID, pos func(graph.NodeID) graph.Point) (graph.NodeID, graph.NodeID) {
	bestD := -1.0
	var bu, bv graph.NodeID
	for _, u := range comps[0] {
		for _, c := range comps[1:] {
			for _, v := range c {
				if d := pos(u).Dist(pos(v)); bestD < 0 || d < bestD {
					bestD, bu, bv = d, u, v
				}
			}
		}
	}
	return bu, bv
}

// nearestTo returns the node of nodes closest to point p, the first found
// winning ties.
func nearestTo(pos func(graph.NodeID) graph.Point, nodes []graph.NodeID, p graph.Point) graph.NodeID {
	best := nodes[0]
	bestD := pos(best).Dist(p)
	for _, n := range nodes[1:] {
		if d := pos(n).Dist(p); d < bestD {
			best, bestD = n, d
		}
	}
	return best
}

// maxPairDist returns the maximum pairwise distance among pts.
func maxPairDist(pts []graph.Point) float64 {
	var maxD float64
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist(pts[j]); d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}
