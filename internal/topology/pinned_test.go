package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"smrp/internal/graph"
)

// hierarchyDigest hashes everything a hierarchical topology is made of:
// every node's position, every adjacency row in order (neighbour and the
// weight's bits), every domain record and DomainOf for every node plus one
// out-of-range ID. A moved edge, a reordered row or a renumbered domain all
// change it.
func hierarchyDigest(t *NLevelTopology) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	g := t.Graph
	hashGraph(put, g)
	put(uint64(len(t.Domains)))
	for _, d := range t.Domains {
		put(uint64(d.ID))
		put(uint64(d.Level))
		put(uint64(d.Gateway))
		put(uint64(d.Attach))
		put(uint64(d.Parent))
		put(uint64(len(d.Nodes)))
		for _, n := range d.Nodes {
			put(uint64(n))
		}
		put(uint64(len(d.Children)))
		for _, c := range d.Children {
			put(uint64(c))
		}
	}
	for n := 0; n <= g.NumNodes(); n++ {
		put(uint64(t.DomainOf(graph.NodeID(n))))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// graphDigest hashes a flat topology as hierarchyDigest hashes the graph of
// a hierarchical one.
func graphDigest(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	hashGraph(func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}, g)
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// hashGraph feeds put the node and edge counts, then every node's position
// and its adjacency row in order: neighbour and the weight's bits.
func hashGraph(put func(uint64), g *graph.Graph) {
	put(uint64(g.NumNodes()))
	put(uint64(g.NumEdges()))
	for n := 0; n < g.NumNodes(); n++ {
		p := g.Pos(graph.NodeID(n))
		put(math.Float64bits(p.X))
		put(math.Float64bits(p.Y))
		row := g.Neighbors(graph.NodeID(n))
		put(uint64(len(row)))
		for _, a := range row {
			put(uint64(a.To))
			put(math.Float64bits(a.Weight))
		}
	}
}

// TestGeneratedHierarchiesPinned holds every hierarchical generator's output
// byte for byte: the transit–stub model at its default and at a non-default
// configuration, GenerateNLevel on three seeds, GenerateMegascale at two
// sizes, on domains sparse enough that most need their components joined,
// and on domains past connectifyExactCap, which are joined through their
// centroids. A refactor of the domain builder must leave every digest alone,
// at every GOMAXPROCS: megascale domains are wired on that many workers.
func TestGeneratedHierarchiesPinned(t *testing.T) {
	wideTS := TransitStubConfig{
		TransitNodes: 6, StubsPerNode: 2, StubNodes: 9,
		TransitAlpha: 0.7, StubAlpha: 0.8, Beta: 0.45,
		TransitExtent: 2, StubExtent: 0.4,
	}
	cases := []struct {
		name string
		gen  func() (*NLevelTopology, error)
		want string
	}{
		{"transit-stub/default", func() (*NLevelTopology, error) {
			return GenerateTransitStub(DefaultTransitStubConfig(), NewRNG(42))
		}, "03d3e54c735d028f3024338d"},
		{"transit-stub/wide", func() (*NLevelTopology, error) {
			return GenerateTransitStub(wideTS, NewRNG(7))
		}, "258dd62b98393baf54f0e379"},
		{"nlevel/seed1", func() (*NLevelTopology, error) { return GenerateNLevel(DefaultNLevelConfig(), NewRNG(1)) }, "d3b968bd1f3da97def88cacb"},
		{"nlevel/seed5", func() (*NLevelTopology, error) { return GenerateNLevel(DefaultNLevelConfig(), NewRNG(5)) }, "170531ad14e41ac0589cd679"},
		{"nlevel/4-level-seed2005", func() (*NLevelTopology, error) {
			return GenerateNLevel(NLevelConfig{Levels: 4, Fanout: 3, NodesPerDomain: 6, Alpha: 0.8, Beta: 0.5, Extent: 1.5, Shrink: 0.4}, NewRNG(2005))
		}, "b7d900b41849e729dc39fec3"},
		{"megascale/2000", func() (*NLevelTopology, error) { return GenerateMegascale(MegascaleConfig{TargetNodes: 2000}, 2005) }, "b08ff71c626bb2a7b6f15808"},
		{"megascale/10000", func() (*NLevelTopology, error) { return GenerateMegascale(MegascaleConfig{TargetNodes: 10000}, 2005) }, "1204e6f54dd658d0e7f58476"},
		{"megascale/sparse", func() (*NLevelTopology, error) {
			return GenerateMegascale(MegascaleConfig{TargetNodes: 3000, Alpha: 0.05, Beta: 0.15}, 2005)
		}, "ca030de952494434997dd1fd"},
		{"megascale/past-exact-cap", func() (*NLevelTopology, error) {
			return GenerateMegascale(MegascaleConfig{TargetNodes: 8200, Levels: 2, NodesPerDomain: connectifyExactCap + 4, Alpha: 0.02, Beta: 0.05}, 2005)
		}, "c225863542520a2f375726e3"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			topo, err := c.gen()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got := hierarchyDigest(topo); got != c.want {
				t.Errorf("%s at GOMAXPROCS %d: digest %s, want %s", c.name, procs, got, c.want)
			}
		}
	}
}

// TestFlatGeneratorsPinned holds the flat generators' output byte for byte:
// Waxman at the paper's sizes and densities, connectified and not, at the
// serve size, and at a density where most pairs reach the exact exponential
// rather than a cheap rejection; GridWaxman connectified on the unit square;
// and FlatMegascale, whose joining edges take the centroid rule. The pins
// hold at every GOMAXPROCS.
func TestFlatGeneratorsPinned(t *testing.T) {
	waxman := func(n int, alpha, beta float64, connected bool, seed uint64) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) {
			return Waxman(WaxmanConfig{N: n, Alpha: alpha, Beta: beta, EnsureConnected: connected}, NewRNG(seed))
		}
	}
	cases := []struct {
		name string
		gen  func() (*graph.Graph, error)
		want string
	}{
		{"waxman/100/a0.15/seed1", waxman(100, 0.15, DefaultBeta, true, 1), "f3087e777b923ab3f225fe41"},
		{"waxman/100/a0.15/seed2", waxman(100, 0.15, DefaultBeta, true, 2), "844eeddf87dc217579441018"},
		{"waxman/100/a0.15/seed3/unjoined", waxman(100, 0.15, DefaultBeta, false, 3), "379480b34b453d27b7657b09"},
		{"waxman/100/a0.2/seed1", waxman(100, 0.2, DefaultBeta, true, 1), "a52977ed2386bd2acf7837e2"},
		{"waxman/100/a0.2/seed2", waxman(100, 0.2, DefaultBeta, true, 2), "e498ec43061c18e915acde36"},
		{"waxman/100/a0.2/seed3", waxman(100, 0.2, DefaultBeta, true, 3), "13ce459459caf63442465afc"},
		{"waxman/100/a0.3/seed1", waxman(100, 0.3, DefaultBeta, true, 1), "95038369cb4f8fb375b8355b"},
		{"waxman/100/a0.3/seed2", waxman(100, 0.3, DefaultBeta, true, 2), "7c6d2a5c45edabce4da5cd03"},
		{"waxman/100/a0.3/seed3", waxman(100, 0.3, DefaultBeta, true, 3), "2d5459715c22229d14f8b986"},
		{"waxman/200/serve", waxman(200, 0.2, DefaultBeta, true, 42), "fe5f62c69e97ab0d9d13d3b8"},
		{"waxman/100/dense", waxman(100, 0.9, 0.6, true, 2005), "3048c772ce55900b2ec4cc82"},
		{"grid/250/unit-square-joined", func() (*graph.Graph, error) {
			g, _, err := GridWaxman(GridWaxmanConfig{N: 250, Alpha: 0.2, Beta: DefaultBeta, EnsureConnected: true}, NewRNG(3))
			return g, err
		}, "bc875730dbf83901b92ea63c"},
		{"flat/8192", func() (*graph.Graph, error) {
			g, _, err := FlatMegascale(8192, 2005)
			return g, err
		}, "fb9490332ba2f556af0d7690"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			g, err := c.gen()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got := graphDigest(g); got != c.want {
				t.Errorf("%s at GOMAXPROCS %d: digest %s, want %s", c.name, procs, got, c.want)
			}
		}
	}
}
