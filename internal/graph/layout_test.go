package graph

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestLayoutProperties: random builds of three kinds — every row reserved at
// its final degree, rows reserved short so that they outgrow their room, and
// no reserve at all — freeze to one block in compressed-row form: the row
// offsets rise, the last is twice the edge count, every arc has a twin of
// equal weight in its far end's row, and each row is in (weight, neighbour)
// order. An exactly reserved build keeps the very arrays Reserve carved.
// Views of each build hold the same properties; their aliased rows are spans
// of the parent's arrays, and their private rows fill a block of their own
// with no arc to spare.
func TestLayoutProperties(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(4200 + trial)))
		n := 2 + rng.Intn(60)
		type edge struct {
			u, v NodeID
			w    float64
		}
		var edges []edge
		deg := make([]int32, n)
		seen := map[EdgeID]bool{}
		for k := rng.Intn(4 * n); k > 0; k-- {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u == v || seen[MakeEdgeID(u, v)] {
				continue
			}
			seen[MakeEdgeID(u, v)] = true
			edges = append(edges, edge{u, v, float64(1 + rng.Intn(4))}) // ties on purpose
			deg[u]++
			deg[v]++
		}
		for _, kind := range []string{"exact", "short", "none"} {
			what := fmt.Sprintf("trial %d, %s reserve", trial, kind)
			b := New(n)
			switch kind {
			case "exact":
				b.Reserve(deg)
			case "short":
				short := make([]int32, n)
				for u, d := range deg {
					short[u] = d / 2
				}
				b.Reserve(short)
			}
			for _, e := range edges {
				if err := b.AddEdge(e.u, e.v, e.w); err != nil {
					t.Fatal(err)
				}
			}
			if kind == "short" && len(edges) > 1 && len(b.g.ownTo) == 0 {
				t.Fatalf("%s: no row outgrew its reserve", what)
			}
			var reservedTo *int32
			var reservedW *float64
			if kind == "exact" && len(edges) > 0 {
				reservedTo, reservedW = &b.g.to[0], &b.g.w[0]
			}
			g := b.Freeze()
			checkLayout(t, what, g, nil)
			if reservedTo != nil && (&g.to[0] != reservedTo || &g.w[0] != reservedW) {
				t.Fatalf("%s: Freeze copied the reserved block", what)
			}

			base := rng.Intn(n)
			size := rng.Intn(n - base + 1)
			var gateways []NodeID
			for _, x := range rng.Perm(n)[:rng.Intn(4)] {
				if x < base || x >= base+size {
					gateways = append(gateways, NodeID(x))
				}
			}
			v, _, err := g.View(NodeID(base), size, gateways)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkLayout(t, what+", view", v, g)
		}
	}
}

// checkLayout holds g's store to the compressed-row form, or, when parent is
// not nil, g (a view of parent) to its aliased and private rows.
func checkLayout(t *testing.T, what string, g, parent *Graph) {
	t.Helper()
	n, arcs, private := g.NumNodes(), 0, 0
	for u := NodeID(0); int(u) < n; u++ {
		lo, hi := g.lo[u], g.hi[u]
		to, w := g.arcs(u)
		switch {
		case parent == nil:
			if lo < 0 || hi < lo || (u > 0 && g.hi[u-1] != lo) || (u == 0 && lo != 0) {
				t.Fatalf("%s: row %d is [%d, %d), after a row ending at %d", what, u, lo, hi, g.hi[max(u-1, 0)])
			}
		case lo >= 0:
			if len(to) > 0 && (&to[0] != &parent.to[lo] || &w[0] != &parent.w[lo]) {
				t.Fatalf("%s: aliased row %d is not the parent's span [%d, %d)", what, u, lo, hi)
			}
		default:
			private += len(to)
		}
		arcs += len(to)
		for i := 1; i < len(to); i++ {
			if !arcBefore(to[i-1], w[i-1], to[i], w[i]) {
				t.Fatalf("%s: row %d out of frozen order at %d: %v", what, u, i, g.Neighbors(u))
			}
		}
		for i, x := range to {
			v := NodeID(x - g.base)
			if !g.valid(v) {
				t.Fatalf("%s: row %d leads to %d, outside the graph", what, u, v)
			}
			twins := 0
			vt, vw := g.arcs(v)
			for j, y := range vt {
				if NodeID(y-g.base) == u && vw[j] == w[i] {
					twins++
				}
			}
			if twins != 1 {
				t.Fatalf("%s: arc %d→%d (weight %v) has %d twins", what, u, v, w[i], twins)
			}
		}
	}
	if arcs != 2*g.NumEdges() {
		t.Fatalf("%s: %d arcs for %d edges", what, arcs, g.NumEdges())
	}
	if parent == nil {
		if n > 0 && int(g.hi[n-1]) != 2*g.NumEdges() || len(g.to) != 2*g.NumEdges() || g.ownTo != nil {
			t.Fatalf("%s: block of %d arcs (own %d) for %d edges", what, len(g.to), len(g.ownTo), g.NumEdges())
		}
		if n > 1 && &g.lo[1] != &g.hi[0] {
			t.Fatalf("%s: row starts and ends are not windows of one offset array", what)
		}
	} else if len(g.ownTo) != private || len(g.ownW) != private {
		t.Fatalf("%s: private block of %d arcs for %d private arcs", what, len(g.ownTo), private)
	}
}

// TestLimitsRefusedBeforeAllocation: far ends and row bounds are 32 bits
// wide, so New refuses more than math.MaxInt32 nodes, and Reserve and Freeze
// more than math.MaxInt32 arcs, each with a panic before anything that size
// is allocated. (Freeze is handed an edge count that large; no arc exists.)
func TestLimitsRefusedBeforeAllocation(t *testing.T) {
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Errorf("%s: panic %v, want one naming %q", what, r, want)
			}
		}()
		f()
	}
	mustPanic("New", "nodes exceed", func() { New(math.MaxInt32 + 1) })
	mustPanic("Reserve", "arcs exceeds", func() { New(2).Reserve([]int32{math.MaxInt32, 1}) })
	b := New(2)
	b.g.edges = math.MaxInt32/2 + 1
	mustPanic("Freeze", "arcs exceed", func() { b.Freeze() })
}
