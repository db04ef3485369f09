package topology

import (
	"fmt"
	"math"

	"smrp/internal/graph"
)

// WaxmanConfig parameterizes the Waxman random-graph model the paper uses
// via GT-ITM:
//
//	P(u,v) = Alpha · exp(−d(u,v) / (Beta·L))
//
// where d(u,v) is the Euclidean distance between u and v and L is the
// maximum possible distance in the placement plane. Increasing Alpha raises
// edge density; increasing Beta favours long edges. The paper fixes Beta and
// varies Alpha to tune average node degree (citing Zegura et al.).
type WaxmanConfig struct {
	N     int     // number of nodes
	Alpha float64 // edge-density parameter, (0, 1]
	Beta  float64 // long-edge parameter, (0, 1]

	// EnsureConnected, when true, joins any disconnected components by
	// adding the geometrically shortest inter-component edge (GT-ITM-style
	// post-processing). Without it, disconnected samples would have to be
	// discarded and the seed stream would diverge between parameterizations.
	EnsureConnected bool
}

// DefaultBeta is the fixed Beta used by the evaluation harness. With nodes
// in the unit square it yields average node degrees in the ≈2.5–5 range over
// the Alpha values the paper sweeps (0.15–0.3), and was calibrated so the
// default setup (α=0.2, D_thresh=0.3) reproduces the paper's headline
// trade-off (≈20% shorter recovery paths at ≈5% delay penalty).
const DefaultBeta = 0.15

// Validate reports whether the configuration is usable.
func (c WaxmanConfig) Validate() error {
	if c.N < 2 || c.N > maxNodes {
		return fmt.Errorf("waxman: %w: N = %d, need 2 to %d nodes", ErrBadConfig, c.N, maxNodes)
	}
	if !inRange(c.Alpha, 0, 1) {
		return fmt.Errorf("waxman: %w: Alpha = %v out of (0, 1]", ErrBadConfig, c.Alpha)
	}
	if !inRange(c.Beta, 0, 1) {
		return fmt.Errorf("waxman: %w: Beta = %v out of (0, 1]", ErrBadConfig, c.Beta)
	}
	return nil
}

// Waxman generates a Waxman random graph with nodes placed uniformly in the
// unit square. Link weight (used as both delay and cost, mirroring the
// paper's per-link delay labels) is the Euclidean distance between the
// endpoints.
func Waxman(cfg WaxmanConfig, rng *RNG) (*graph.Graph, error) {
	b, err := waxmanBuilder(cfg, rng)
	if err != nil {
		return nil, err
	}
	return b.Freeze()
}

// waxmanBuilder draws Waxman's graph into a builder that has recorded all
// its edges.
func waxmanBuilder(cfg WaxmanConfig, rng *RNG) (*graph.Builder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := graph.New(cfg.N)
	for i := 0; i < cfg.N; i++ {
		b.SetPos(graph.NodeID(i), graph.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	scale := cfg.Beta * math.Sqrt2 // β·L, L the diagonal of the unit square
	var ends [][2]int32
	for u := 0; u < cfg.N; u++ {
		for v := u + 1; v < cfg.N; v++ {
			d := b.Pos(graph.NodeID(u)).Dist(b.Pos(graph.NodeID(v)))
			if waxmanAccept(rng.Float64(), cfg.Alpha, d/scale) {
				ends = append(ends, [2]int32{int32(u), int32(v)})
			}
		}
	}
	addEdges(b, ends, cfg.EnsureConnected)
	return b, nil
}

// addEdges records the edges, joined into one component first when connect
// is set (see connectify), as one run weighted by length.
func addEdges(b *graph.Builder, ends [][2]int32, connect bool) {
	if connect {
		ends = connectify(b.NumNodes(), b.Pos, ends)
	}
	b.AddRuns([]graph.Run{distRun(b, ends)})
}

// distRun makes the edges a run whose weights are their lengths (see
// distWeight).
func distRun(b *graph.Builder, ends [][2]int32) graph.Run {
	return graph.Run{Ends: ends, Weight: func(i int) float64 {
		e := ends[i]
		return distWeight(b.Pos(graph.NodeID(e[0])), b.Pos(graph.NodeID(e[1])))
	}}
}

// distWeight is the weight of an edge from p to q: the Euclidean distance,
// with a small floor so coincident points still get a positive weight.
func distWeight(p, q graph.Point) float64 {
	d := p.Dist(q)
	if d < 1e-9 {
		d = 1e-9
	}
	return d
}

// connectifyExactCap bounds the exact all-pairs scan of connectify: graphs
// larger than this use the deterministic centroid-based pair pick instead.
// The cap sits far above every paper-scale study topology (N ≤ 300, which
// must keep the exact scan so blessed outputs stay byte-identical) and far
// below megascale, where an O(comps²·|ci|·|cj|) scan could dominate the
// whole O(N·deg) generation.
const connectifyExactCap = 4096

// connectify returns the edges among n nodes at positions pos with the edges
// that join their components appended, so every generated sample is usable
// (the connectivity post-processing used with random topology generators).
// Components are listed as Graph.Components lists them: by lowest node,
// members ascending. Up to connectifyExactCap nodes it adds the
// geometrically shortest edge between any two components, the first found
// winning ties, until one component is left; past the cap it joins every
// component to the largest in one centroid pass (joinComponentsCentroid).
func connectify(n int, pos func(graph.NodeID) graph.Point, ends [][2]int32) [][2]int32 {
	f := forest(nil).reset(n)
	for _, e := range ends {
		f.union(e[0], e[1])
	}
	link := func(u, v graph.NodeID) {
		ends = append(ends, [2]int32{int32(u), int32(v)})
		f.union(int32(u), int32(v))
	}
	if n > connectifyExactCap {
		joinComponentsCentroid(f.components(), pos, link)
		return ends
	}
	for comps := f.components(); len(comps) > 1; comps = f.components() {
		bestD := math.Inf(1)
		var bestU, bestV graph.NodeID
		for ci := range comps {
			for _, cj := range comps[ci+1:] {
				for _, u := range comps[ci] {
					for _, v := range cj {
						if d := pos(u).Dist(pos(v)); d < bestD {
							bestD, bestU, bestV = d, u, v
						}
					}
				}
			}
		}
		link(bestU, bestV)
	}
	return ends
}

// forest is a union-find over nodes 0..len−1: f[x] is x's parent, a root
// its own.
type forest []int32

// reset returns a forest of n singletons, in f's storage when it has room.
func (f forest) reset(n int) forest {
	f = f[:0]
	for i := 0; i < n; i++ {
		f = append(f, int32(i))
	}
	return f
}

// find returns the root of x's set, halving the path on the way.
func (f forest) find(x int32) int32 {
	for f[x] != x {
		f[x] = f[f[x]]
		x = f[x]
	}
	return x
}

// union merges the sets of x and y and reports whether they were apart.
func (f forest) union(x, y int32) bool {
	a, b := f.find(x), f.find(y)
	f[a] = b
	return a != b
}

// components lists the sets, by lowest node, members ascending.
func (f forest) components() [][]graph.NodeID {
	label := make([]int32, len(f)) // label[r] is 1 + the index of root r's set
	var comps [][]graph.NodeID
	for x := range f {
		r := f.find(int32(x))
		if label[r] == 0 {
			comps = append(comps, nil)
			label[r] = int32(len(comps))
		}
		comps[label[r]-1] = append(comps[label[r]-1], graph.NodeID(x))
	}
	return comps
}

// joinComponentsCentroid joins components at megascale without the
// quadratic nearest-pair scan: every minority component attaches to the
// largest one via (nearest main-component node to the minority centroid) ↔
// (nearest minority node to that anchor). One linear scan per join, fully
// deterministic (ties break on scan order). It reads positions through pos
// and adds each joining edge through link (shared by connectify and the
// domain wiring).
func joinComponentsCentroid(comps [][]graph.NodeID, pos func(graph.NodeID) graph.Point, link func(u, v graph.NodeID)) {
	if len(comps) <= 1 {
		return
	}
	// Largest component hosts the others; first-listed wins ties.
	main := 0
	for i, c := range comps {
		if len(c) > len(comps[main]) {
			main = i
		}
	}
	for i, c := range comps {
		if i == main {
			continue
		}
		var cx, cy float64
		for _, n := range c {
			p := pos(n)
			cx += p.X
			cy += p.Y
		}
		centroid := graph.Point{X: cx / float64(len(c)), Y: cy / float64(len(c))}
		anchor := nearestTo(pos, comps[main], centroid)
		link(anchor, nearestTo(pos, c, pos(anchor)))
	}
}

// Stats summarizes a generated topology.
type Stats struct {
	Nodes      int
	Edges      int
	AvgDegree  float64
	MinDegree  int
	MaxDegree  int
	Components int
	AvgWeight  float64
}

// Describe computes summary statistics for g.
func Describe(g *graph.Graph) Stats {
	s := Stats{
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		AvgDegree:  g.AvgDegree(),
		Components: len(g.Components(nil)),
		MinDegree:  math.MaxInt,
	}
	if s.Nodes == 0 {
		s.MinDegree = 0
		return s
	}
	for n := 0; n < s.Nodes; n++ {
		d := g.Degree(graph.NodeID(n))
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	var total float64
	for _, e := range g.Edges() {
		w, _ := g.EdgeWeight(e.A, e.B)
		total += w
	}
	if s.Edges > 0 {
		s.AvgWeight = total / float64(s.Edges)
	}
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d edges=%d avg_deg=%.2f deg=[%d,%d] comps=%d avg_w=%.3f",
		s.Nodes, s.Edges, s.AvgDegree, s.MinDegree, s.MaxDegree, s.Components, s.AvgWeight)
}
