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
