package topology

import (
	"bytes"
	"errors"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"smrp/internal/graph"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(123)
	b := NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(124)
	same := 0
	a = NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds coincide %d/100 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(9)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		// Each bucket expects 10000; allow ±5% (well beyond 6σ).
		if c < 9500 || c > 10500 {
			t.Errorf("Intn(7) bucket %d count %d, suspiciously non-uniform", v, c)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGPermAndSample(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
	s := r.Sample(10, 4)
	if len(s) != 4 {
		t.Fatalf("Sample returned %d values", len(s))
	}
	dup := map[int]bool{}
	for _, v := range s {
		if dup[v] {
			t.Fatalf("Sample has duplicates: %v", s)
		}
		dup[v] = true
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(42)
	child := parent.Split()
	// The child stream must not simply replay the parent stream.
	p2 := NewRNG(42)
	_ = p2.Uint64() // advance same as Split consumed
	if child.Uint64() == p2.Uint64() {
		t.Error("split child replays parent stream")
	}
}

func TestLeadingZeros(t *testing.T) {
	tests := []struct {
		x    uint64
		want uint
	}{
		{x: 0, want: 64},
		{x: 1, want: 63},
		{x: 0x8000000000000000, want: 0},
		{x: 0xFF, want: 56},
	}
	for _, tt := range tests {
		if got := leadingZeros(tt.x); got != tt.want {
			t.Errorf("leadingZeros(%#x) = %d, want %d", tt.x, got, tt.want)
		}
	}
}

func TestWaxmanValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  WaxmanConfig
	}{
		{name: "too few nodes", cfg: WaxmanConfig{N: 1, Alpha: 0.2, Beta: 0.25}},
		{name: "alpha zero", cfg: WaxmanConfig{N: 10, Alpha: 0, Beta: 0.25}},
		{name: "alpha too big", cfg: WaxmanConfig{N: 10, Alpha: 1.5, Beta: 0.25}},
		{name: "beta zero", cfg: WaxmanConfig{N: 10, Alpha: 0.2, Beta: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Waxman(tt.cfg, NewRNG(1)); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestWaxmanGeneratesConnectedGraph(t *testing.T) {
	cfg := WaxmanConfig{N: 100, Alpha: 0.2, Beta: DefaultBeta, EnsureConnected: true}
	for seed := uint64(0); seed < 5; seed++ {
		g, err := Waxman(cfg, NewRNG(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if g.NumNodes() != 100 {
			t.Fatalf("seed %d: %d nodes", seed, g.NumNodes())
		}
		if !g.Connected(nil) {
			t.Errorf("seed %d: graph not connected", seed)
		}
		st := Describe(g)
		if st.AvgDegree < 2 || st.AvgDegree > 12 {
			t.Errorf("seed %d: avg degree %.2f outside sane band", seed, st.AvgDegree)
		}
	}
}

func TestWaxmanDeterministic(t *testing.T) {
	cfg := WaxmanConfig{N: 60, Alpha: 0.2, Beta: DefaultBeta, EnsureConnected: true}
	g1, err := Waxman(cfg, NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Waxman(cfg, NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatalf("edge counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestWaxmanAlphaControlsDensity(t *testing.T) {
	lowCfg := WaxmanConfig{N: 100, Alpha: 0.15, Beta: DefaultBeta, EnsureConnected: true}
	highCfg := WaxmanConfig{N: 100, Alpha: 0.3, Beta: DefaultBeta, EnsureConnected: true}
	var lowSum, highSum float64
	const trials = 5
	for seed := uint64(0); seed < trials; seed++ {
		gl, err := Waxman(lowCfg, NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		gh, err := Waxman(highCfg, NewRNG(seed+100))
		if err != nil {
			t.Fatal(err)
		}
		lowSum += gl.AvgDegree()
		highSum += gh.AvgDegree()
	}
	if highSum/trials <= lowSum/trials {
		t.Errorf("alpha=0.3 avg degree %.2f not above alpha=0.15 %.2f",
			highSum/trials, lowSum/trials)
	}
}

func TestWaxmanWeightsAreEuclidean(t *testing.T) {
	cfg := WaxmanConfig{N: 30, Alpha: 0.4, Beta: DefaultBeta}
	g, err := Waxman(cfg, NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		w, _ := g.EdgeWeight(e.A, e.B)
		d := g.Pos(e.A).Dist(g.Pos(e.B))
		if math.Abs(w-d) > 1e-9 {
			t.Errorf("edge %v weight %v != distance %v", e, w, d)
		}
	}
}

// TestConnectify: two far-apart pairs are joined by the geometrically
// closest pair across them, and the edges already there are kept first.
func TestConnectify(t *testing.T) {
	pts := []graph.Point{{X: 0}, {X: 0.1}, {X: 5}, {X: 5.1}}
	pos := func(n graph.NodeID) graph.Point { return pts[n] }
	got := connectify(len(pts), pos, [][2]int32{{0, 1}, {2, 3}})
	if want := [][2]int32{{0, 1}, {2, 3}, {1, 2}}; !slices.Equal(got, want) {
		t.Errorf("edges %v, want %v", got, want)
	}
}

func TestDescribe(t *testing.T) {
	b := graph.New(4) // the path 0—1—2—3
	for i := graph.NodeID(0); i < 3; i++ {
		if err := b.AddEdge(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	s := Describe(g)
	if s.Nodes != 4 || s.Edges != 3 || s.Components != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.MinDegree != 1 || s.MaxDegree != 2 {
		t.Errorf("degree range = [%d,%d]", s.MinDegree, s.MaxDegree)
	}
	if s.AvgWeight != 1 {
		t.Errorf("avg weight = %v", s.AvgWeight)
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestFixtures(t *testing.T) {
	t.Run("fig1", func(t *testing.T) {
		g, err := PaperFig1()
		if err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() != 5 || g.NumEdges() != 6 {
			t.Errorf("fig1 shape: %d nodes %d edges", g.NumNodes(), g.NumEdges())
		}
		// SPF paths from S: C via A (3), D via A (2).
		tr := g.Dijkstra(0, nil)
		if tr.Dist[3] != 3 || tr.Dist[4] != 2 {
			t.Errorf("fig1 SPF dists C=%v D=%v, want 3, 2", tr.Dist[3], tr.Dist[4])
		}
	})
	t.Run("fig4", func(t *testing.T) {
		g, err := PaperFig4()
		if err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() != 8 {
			t.Errorf("fig4 nodes = %d", g.NumNodes())
		}
		if !g.Connected(nil) {
			t.Error("fig4 must be connected")
		}
	})
}

func TestTransitStub(t *testing.T) {
	cfg := DefaultTransitStubConfig()
	ts, err := GenerateTransitStub(cfg, NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := cfg.TransitNodes + cfg.TransitNodes*cfg.StubsPerNode*cfg.StubNodes
	if ts.Graph.NumNodes() != wantNodes {
		t.Fatalf("nodes = %d, want %d", ts.Graph.NumNodes(), wantNodes)
	}
	if !ts.Graph.Connected(nil) {
		t.Error("transit-stub graph must be connected")
	}
	transit, stubs := ts.Domains[0], ts.Domains[1:]
	if len(stubs) != cfg.TransitNodes*cfg.StubsPerNode {
		t.Errorf("stub domains = %d", len(stubs))
	}
	if len(transit.Nodes) != cfg.TransitNodes || transit.Level != 0 || transit.Parent != -1 {
		t.Errorf("transit domain = %+v", transit)
	}
	for _, stub := range stubs {
		if stub.Level != 1 || stub.Parent != 0 || len(stub.Nodes) != cfg.StubNodes {
			t.Errorf("stub %d = %+v", stub.ID, stub)
		}
		if ts.DomainOf(stub.Attach) != 0 {
			t.Errorf("stub %d attached to %d outside the transit domain", stub.ID, stub.Attach)
		}
		if !ts.Graph.HasEdge(stub.Gateway, stub.Attach) {
			t.Errorf("stub %d gateway %d not linked to attach %d", stub.ID, stub.Gateway, stub.Attach)
		}
		if got := ts.DomainOf(stub.Nodes[1]); got != stub.ID {
			t.Errorf("DomainOf(stub %d node) = %d", stub.ID, got)
		}
	}
	if got := ts.DomainOf(transit.Nodes[0]); got != 0 {
		t.Errorf("DomainOf(transit node) = %d, want 0", got)
	}
	if got := ts.DomainOf(graph.NodeID(wantNodes + 5)); got != -1 {
		t.Errorf("DomainOf(unknown) = %d, want -1", got)
	}
}

func TestTransitStubValidation(t *testing.T) {
	bad := DefaultTransitStubConfig()
	bad.TransitNodes = 1
	if _, err := GenerateTransitStub(bad, NewRNG(1)); err == nil {
		t.Error("expected validation error for 1 transit node")
	}
	bad2 := DefaultTransitStubConfig()
	bad2.StubAlpha = 2
	if _, err := GenerateTransitStub(bad2, NewRNG(1)); err == nil {
		t.Error("expected validation error for alpha > 1")
	}
}

// TestValidationRefusesNaN: every generator configuration refuses a NaN in
// any of its real-valued parameters, and an infinite extent. A check written
// as x <= 0 || x > 1 lets NaN through, and the generator then wires a graph
// whose every Waxman draw compares false.
func TestValidationRefusesNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	wax := func(f func(*WaxmanConfig)) interface{ Validate() error } {
		c := WaxmanConfig{N: 50, Alpha: 0.2, Beta: DefaultBeta}
		f(&c)
		return c
	}
	grid := func(f func(*GridWaxmanConfig)) interface{ Validate() error } {
		c := GridWaxmanConfig{N: 50, Alpha: 0.2, Beta: DefaultBeta}
		f(&c)
		return c
	}
	ts := func(f func(*TransitStubConfig)) interface{ Validate() error } {
		c := DefaultTransitStubConfig()
		f(&c)
		return c
	}
	nl := func(f func(*NLevelConfig)) interface{ Validate() error } {
		c := DefaultNLevelConfig()
		f(&c)
		return c
	}
	mega := func(f func(*MegascaleConfig)) interface{ Validate() error } {
		c := MegascaleConfig{TargetNodes: 2000}
		f(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  interface{ Validate() error }
	}{
		{"waxman Alpha NaN", wax(func(c *WaxmanConfig) { c.Alpha = nan })},
		{"waxman Beta NaN", wax(func(c *WaxmanConfig) { c.Beta = nan })},
		{"grid Alpha NaN", grid(func(c *GridWaxmanConfig) { c.Alpha = nan })},
		{"grid Beta NaN", grid(func(c *GridWaxmanConfig) { c.Beta = nan })},
		{"grid PMin NaN", grid(func(c *GridWaxmanConfig) { c.PMin = nan })},
		{"transit-stub TransitAlpha NaN", ts(func(c *TransitStubConfig) { c.TransitAlpha = nan })},
		{"transit-stub StubAlpha NaN", ts(func(c *TransitStubConfig) { c.StubAlpha = nan })},
		{"transit-stub Beta NaN", ts(func(c *TransitStubConfig) { c.Beta = nan })},
		{"transit-stub TransitExtent NaN", ts(func(c *TransitStubConfig) { c.TransitExtent = nan })},
		{"transit-stub StubExtent NaN", ts(func(c *TransitStubConfig) { c.StubExtent = nan })},
		{"transit-stub TransitExtent +Inf", ts(func(c *TransitStubConfig) { c.TransitExtent = inf })},
		{"transit-stub StubExtent +Inf", ts(func(c *TransitStubConfig) { c.StubExtent = inf })},
		{"nlevel Alpha NaN", nl(func(c *NLevelConfig) { c.Alpha = nan })},
		{"nlevel Beta NaN", nl(func(c *NLevelConfig) { c.Beta = nan })},
		{"nlevel Extent NaN", nl(func(c *NLevelConfig) { c.Extent = nan })},
		{"nlevel Extent +Inf", nl(func(c *NLevelConfig) { c.Extent = inf })},
		{"nlevel Shrink NaN", nl(func(c *NLevelConfig) { c.Shrink = nan })},
		{"megascale Alpha NaN", mega(func(c *MegascaleConfig) { c.Alpha = nan })},
		{"megascale Beta NaN", mega(func(c *MegascaleConfig) { c.Beta = nan })},
		{"megascale Extent NaN", mega(func(c *MegascaleConfig) { c.Extent = nan })},
		{"megascale Extent +Inf", mega(func(c *MegascaleConfig) { c.Extent = inf })},
		{"megascale Shrink NaN", mega(func(c *MegascaleConfig) { c.Shrink = nan })},
	} {
		if err := tc.cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Validate() = %v, want ErrBadConfig", tc.name, err)
		}
	}
	// The defaults those cases start from are themselves valid.
	for _, cfg := range []interface{ Validate() error }{
		wax(func(*WaxmanConfig) {}), grid(func(*GridWaxmanConfig) {}),
		ts(func(*TransitStubConfig) {}), nl(func(*NLevelConfig) {}), mega(func(*MegascaleConfig) {}),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%T: %v", cfg, err)
		}
	}
}

// TestGeneratorsRefuseOversizedConfigs: a topology whose node count does
// not fit the 32-bit node IDs the stack stores is refused with ErrBadConfig
// before anything is allocated, including counts whose product wraps int.
// Each of these once panicked in makeslice or ran out of memory; a flat
// plane that large would have had its IDs truncated.
func TestGeneratorsRefuseOversizedConfigs(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func() error
	}{
		{"nlevel 64 levels of fanout 2", func() error {
			_, err := GenerateNLevel(NLevelConfig{Levels: 64, Fanout: 2, NodesPerDomain: 4, Alpha: .5, Beta: .5, Extent: 1, Shrink: .5}, NewRNG(1))
			return err
		}},
		{"megascale 64 levels", func() error {
			_, err := GenerateMegascale(MegascaleConfig{TargetNodes: 10000, Levels: 64}, 1)
			return err
		}},
		{"grid waxman past 2^31 nodes", func() error {
			return GridWaxmanConfig{N: math.MaxInt32 + 1, Alpha: .5, Beta: .5}.Validate()
		}},
		{"waxman past 2^31 nodes", func() error {
			return WaxmanConfig{N: math.MaxInt32 + 1, Alpha: .5, Beta: .5}.Validate()
		}},
		{"transit-stub product wraps", func() error {
			_, err := GenerateTransitStub(TransitStubConfig{
				TransitNodes: 2, StubsPerNode: 1 << 32, StubNodes: 1 << 31,
				TransitAlpha: .5, StubAlpha: .5, Beta: .5, TransitExtent: 1, StubExtent: 1,
			}, NewRNG(1))
			return err
		}},
	} {
		if err := tc.gen(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: %v, want ErrBadConfig", tc.name, err)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	cfg := WaxmanConfig{N: 40, Alpha: 0.25, Beta: DefaultBeta, EnsureConnected: true}
	g, err := Waxman(cfg, NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip shape mismatch: %d/%d vs %d/%d",
			back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		w1, _ := g.EdgeWeight(e.A, e.B)
		w2, ok := back.EdgeWeight(e.A, e.B)
		if !ok || w1 != w2 {
			t.Errorf("edge %v weight %v vs %v (ok=%v)", e, w1, w2, ok)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{")); err == nil {
		t.Error("truncated JSON should error")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"nodes":[{"id":5}],"edges":[]}`)); err == nil {
		t.Error("non-dense node IDs should error")
	}
}

// TestReadJSONRefusesBadEdges: ReadJSON takes topology files from outside
// the program, so every edge the graph cannot hold is refused with a decode
// error naming it: a duplicate in either orientation, a self-loop, an
// endpoint below zero, past the last node or 2³²+1 (node 1 if it were
// narrowed to 32 bits before the range check), and a weight that is zero or
// negative.
func TestReadJSONRefusesBadEdges(t *testing.T) {
	const nodes = `"nodes":[{"id":0},{"id":1},{"id":2},{"id":3}]`
	for _, c := range []struct {
		name, edges, want string
	}{
		{"duplicate", `{"u":0,"v":1,"weight":1},{"u":1,"v":2,"weight":1},{"u":0,"v":1,"weight":2}`, "0-1: already present"},
		{"duplicate reversed", `{"u":2,"v":3,"weight":1},{"u":1,"v":2,"weight":1},{"u":3,"v":2,"weight":1}`, "(2-3|3-2): already present"}, // either orientation names the edge
		{"self-loop", `{"u":0,"v":1,"weight":1},{"u":2,"v":2,"weight":1}`, "self-loop at node 2"},
		{"negative endpoint", `{"u":-1,"v":1,"weight":1}`, "add edge -1-1: graph: unknown node"},
		{"endpoint past the last node", `{"u":0,"v":4,"weight":1}`, "add edge 0-4: graph: unknown node"},
		{"endpoint 2^32+1", `{"u":0,"v":4294967297,"weight":1}`, "add edge 0-4294967297: graph: unknown node"},
		{"zero weight", `{"u":0,"v":1,"weight":0}`, "add edge 0-1: weight 0 must be positive"},
		{"negative weight", `{"u":1,"v":3,"weight":-2.5}`, "add edge 1-3: weight -2.5 must be positive"},
	} {
		g, err := ReadJSON(bytes.NewBufferString(`{` + nodes + `,"edges":[` + c.edges + `]}`))
		if err == nil || g != nil || !strings.HasPrefix(err.Error(), "decode topology: ") || !regexp.MustCompile(c.want).MatchString(err.Error()) {
			t.Errorf("%s: (%v, %v), want a decode topology error naming %q", c.name, g, err, c.want)
		}
	}
}

// TestRNGFloat64QuickProperty uses testing/quick to check the Float64 range
// holds over arbitrary seeds.
func TestRNGFloat64QuickProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestWaxmanConnectedQuickProperty checks generated topologies are always
// connected across arbitrary seeds when EnsureConnected is set.
func TestWaxmanConnectedQuickProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		g, err := Waxman(WaxmanConfig{N: 50, Alpha: 0.2, Beta: DefaultBeta, EnsureConnected: true}, NewRNG(seed))
		return err == nil && g.Connected(nil)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestNLevelWithinPackage(t *testing.T) {
	cfg := DefaultNLevelConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	nt, err := GenerateNLevel(cfg, NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(nt.Leaves()) == 0 {
		t.Error("no leaves")
	}
	if nt.DomainOf(nt.Domains[0].Nodes[0]) != 0 {
		t.Error("DomainOf root node wrong")
	}
}
