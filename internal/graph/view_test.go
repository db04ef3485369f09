package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestView covers one small view: a range of three nodes and one gateway,
// inside a parent whose arcs leave the view in range rows and gateway row
// alike.
func TestView(t *testing.T) {
	b := New(7)
	mustEdge(t, b, 0, 1, 1) // uplink of range node 1: dropped
	mustEdge(t, b, 1, 2, 2)
	mustEdge(t, b, 2, 3, 3)
	mustEdge(t, b, 3, 4, 4) // to a node outside the view: dropped
	mustEdge(t, b, 3, 6, 5) // to the gateway: kept
	mustEdge(t, b, 5, 6, 6) // the gateway's own domain: dropped
	mustEdge(t, b, 0, 4, 7)
	b.SetPos(2, Point{X: 7, Y: 8})
	b.SetPos(6, Point{X: 1, Y: 2})
	g := mustFreeze(b)

	v, nm, err := g.View(1, 3, []NodeID{6})
	if err != nil {
		t.Fatal(err)
	}
	if v.NumNodes() != 4 || v.NumEdges() != 3 {
		t.Fatalf("view shape: %d nodes %d edges", v.NumNodes(), v.NumEdges())
	}
	for full, sub := range map[NodeID]NodeID{1: 0, 2: 1, 3: 2, 6: 3} {
		if got, ok := nm.ToSub(full); !ok || got != sub {
			t.Errorf("ToSub(%d) = %d,%v, want %d", full, got, ok, sub)
		}
		if got, ok := nm.ToFull(sub); !ok || got != full {
			t.Errorf("ToFull(%d) = %d,%v, want %d", sub, got, ok, full)
		}
	}
	for _, full := range []NodeID{0, 4, 5, 7, -1} {
		if _, ok := nm.ToSub(full); ok {
			t.Errorf("node %d should not be in the view", full)
		}
	}
	for _, sub := range []NodeID{-1, 4, 99} {
		if _, ok := nm.ToFull(sub); ok {
			t.Errorf("view node %d should not map", sub)
		}
	}
	if got, want := v.Edges(), []EdgeID{{0, 1}, {1, 2}, {2, 3}}; !slices.Equal(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
	if got, want := v.Neighbors(2), []Arc{{To: 1, Weight: 3}, {To: 3, Weight: 5}}; !slices.Equal(got, want) {
		t.Errorf("Neighbors(2) = %v, want %v", got, want)
	}
	if w, ok := v.EdgeWeight(2, 3); !ok || w != 5 {
		t.Errorf("EdgeWeight(2, 3) = %v,%v", w, ok)
	}
	if _, ok := v.EdgeWeight(0, 2); ok {
		t.Error("EdgeWeight(0, 2) found a non-edge")
	}
	if p := v.Pos(1); p != (Point{X: 7, Y: 8}) {
		t.Errorf("Pos(1) = %+v", p)
	}
	if p := v.Pos(3); p != (Point{X: 1, Y: 2}) {
		t.Errorf("Pos(3) = %+v", p)
	}
	// Node 2's row (local 1) is the parent's, aliased; the other three are
	// private: 0 lost its uplink, 2 gained the gateway, 3 is the gateway.
	if &v.to[v.lo[1]] != &g.to[g.lo[2]] || &v.w[v.lo[1]] != &g.w[g.lo[2]] {
		t.Error("the row of node 2 is a copy, not the parent's")
	}
	if want := int64(4*2*bytesPerOffset + (1+2+1)*bytesPerArc); v.MemoryFootprint() != want {
		t.Errorf("MemoryFootprint = %d, want %d", v.MemoryFootprint(), want)
	}
}

func TestViewErrors(t *testing.T) {
	b := New(4)
	mustEdge(t, b, 0, 1, 1)
	g := mustFreeze(b)
	for _, c := range []struct {
		base     NodeID
		n        int
		gateways []NodeID
		want     error
	}{
		{base: 3, n: 2, want: ErrUnknownNode},
		{base: -1, n: 2, want: ErrUnknownNode},
		{base: 0, n: 2, gateways: []NodeID{9}, want: ErrUnknownNode},
		{base: 0, n: 2, gateways: []NodeID{1}},    // inside the range
		{base: 0, n: 2, gateways: []NodeID{3, 3}}, // listed twice
	} {
		if _, _, err := g.View(c.base, c.n, c.gateways); err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("View(%d, %d, %v) = %v, want %v", c.base, c.n, c.gateways, err, c.want)
		}
	}
}

// embed places the frozen graph g inside a larger frozen parent and returns
// the view of it that must reproduce g: g's first n−k nodes become the range
// [base, base+n−k), its last k nodes gateways scattered past the range, and
// nodes of the view get arcs to parent nodes outside it, which the view has
// to drop.
func embed(tb testing.TB, g *Graph, k int, rng *rand.Rand) *Graph {
	tb.Helper()
	n := g.NumNodes()
	base := NodeID(1 + rng.Intn(5))
	full := make([]NodeID, n)
	var gateways, outside []NodeID
	for i := range full {
		full[i] = base + NodeID(i)
		if i >= n-k {
			full[i] = base + NodeID(n-k+2*(i-n+k)+1) // a gap before each
			gateways = append(gateways, full[i])
			outside = append(outside, full[i]-1)
		}
	}
	for v := NodeID(0); v < base; v++ {
		outside = append(outside, v)
	}
	total := int(base) + n + k + 3
	for v := total - 3; v < total; v++ {
		outside = append(outside, NodeID(v))
	}
	pb := New(total)
	for i, v := range full {
		pb.SetPos(v, g.Pos(NodeID(i)))
	}
	for _, e := range g.Edges() {
		w, _ := g.EdgeWeight(e.A, e.B)
		if err := pb.AddEdge(full[e.A], full[e.B], w); err != nil {
			tb.Fatal(err)
		}
	}
	seen := map[EdgeID]bool{}
	for _, v := range full {
		for j := rng.Intn(3); j > 0; j-- {
			x, w := outside[rng.Intn(len(outside))], 1+rng.Float64()*9
			if e := MakeEdgeID(v, x); !seen[e] { // a repeat is skipped
				seen[e] = true
				if err := pb.AddEdge(v, x, w); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	view, _, err := mustFreeze(pb).View(base, n-k, gateways)
	if err != nil {
		tb.Fatal(err)
	}
	return view
}

// TestViewMatchesEmbeddedGraph embeds random graphs into larger parents and
// holds the view to the graph it views, through every read API and every
// algorithm that walks rows: the same rows (far end, weight, order), edges,
// weights, positions, shortest-path trees healthy and masked, sweeps,
// nearest scans, fields and components.
func TestViewMatchesEmbeddedGraph(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(7100 + trial)))
		n := 8 + rng.Intn(40)
		b := randomConnectedBuild(rng, n, rng.Intn(2*n))
		for i := 0; i < n; i++ {
			b.SetPos(NodeID(i), Point{X: rng.Float64(), Y: rng.Float64()})
		}
		g := mustFreeze(b)
		v := embed(t, g, rng.Intn(4), rng)

		if v.NumNodes() != n || v.NumEdges() != g.NumEdges() || !slices.Equal(v.Edges(), g.Edges()) {
			t.Fatalf("trial %d: view has %d nodes, %d edges %v; graph %d, %d %v", trial,
				v.NumNodes(), v.NumEdges(), v.Edges(), n, g.NumEdges(), g.Edges())
		}
		for a := NodeID(0); int(a) < n; a++ {
			if !slices.Equal(v.Neighbors(a), g.Neighbors(a)) || v.Degree(a) != g.Degree(a) || v.Pos(a) != g.Pos(a) {
				t.Fatalf("trial %d: node %d: row %v at %v, graph %v at %v", trial, a, v.Neighbors(a), v.Pos(a), g.Neighbors(a), g.Pos(a))
			}
			for b := NodeID(0); int(b) < n; b++ {
				wv, okv := v.EdgeWeight(a, b)
				wg, okg := g.EdgeWeight(a, b)
				if wv != wg || okv != okg {
					t.Fatalf("trial %d: EdgeWeight(%d, %d) = %v,%v, graph %v,%v", trial, a, b, wv, okv, wg, okg)
				}
			}
		}

		src := NodeID(rng.Intn(n))
		mask := randomSweepMask(rng, g, src)
		same := func(what string, a, b any) {
			t.Helper()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("trial %d: %s: view %v, graph %v", trial, what, a, b)
			}
		}
		tree := func(x *SPTree) []any { return []any{x.Dist, x.parent} }
		// Through the SPF caches: a masked run, the healthy tree, and runs
		// that block two nodes and one.
		x, y := (src+1+NodeID(rng.Intn(n-1)))%NodeID(n), (src+1+NodeID(rng.Intn(n-1)))%NodeID(n)
		for k, m := range []*Mask{mask, nil, NewMask().BlockNode(x).BlockNode(y), NewMask().BlockNode(x)} {
			same(fmt.Sprintf("Dijkstra %d", k), tree(v.Dijkstra(src, m)), tree(g.Dijkstra(src, m)))
		}
		same("Components", v.Components(mask), g.Components(mask))

		onTree := make([]bool, n)
		for i := range onTree {
			onTree[i] = rng.Intn(4) == 0
		}
		accept := func(x NodeID) bool { return onTree[x] }
		recV, hitV, exV := v.ScanNearest(nil, src, mask, accept, Unreachable)
		recG, hitG, exG := g.ScanNearest(nil, src, mask, accept, Unreachable)
		same("ScanNearest", []any{recV, hitV, exV}, []any{recG, hitG, exG})
		absorbing := func(x NodeID) bool { return onTree[x] }
		sv, sg := v.NewSweep(), g.NewSweep()
		sv.Run(src, mask, absorbing)
		sg.Run(src, mask, absorbing)
		for x := NodeID(0); int(x) < n; x++ {
			same("Sweep", []any{sv.Reached(x), sv.Dist(x), sv.PathTo(x)}, []any{sg.Reached(x), sg.Dist(x), sg.PathTo(x)})
		}
		sv.Release()
		sg.Release()

		fv, fg := v.NewField(mask), g.NewField(mask)
		fv.Seed(src)
		fg.Seed(src)
		for {
			uv, dv, okv := fv.Next(Unreachable)
			ug, dg, okg := fg.Next(Unreachable)
			same("Field", []any{uv, dv, okv}, []any{ug, dg, okg})
			if !okv {
				break
			}
		}
		fv.Release()
		fg.Release()
	}
}
