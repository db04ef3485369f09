package graph

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestLayoutProperties: random builds of three kinds — edges recorded by
// AddEdge, by AddRuns in several runs, and by both — freeze to one block in
// compressed-row form: the row offsets rise, the last is twice the edge
// count, every arc has a twin of equal weight in its far end's row, and each
// row is in (weight, neighbour) order. Views of each build hold the same
// properties; their aliased rows are spans of the parent's arrays, and their
// private rows fill a block of their own with no arc to spare.
func TestLayoutProperties(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(4200 + trial)))
		n := 2 + rng.Intn(60)
		var edges testRun
		seen := map[EdgeID]bool{}
		for k := rng.Intn(4 * n); k > 0; k-- {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u == v || seen[MakeEdgeID(u, v)] {
				continue
			}
			seen[MakeEdgeID(u, v)] = true
			edges.ends = append(edges.ends, [2]int32{int32(u), int32(v)})
			edges.w = append(edges.w, float64(1+rng.Intn(4))) // ties on purpose
		}
		for _, kind := range []string{"AddEdge", "AddRuns", "both"} {
			what := fmt.Sprintf("trial %d, %s", trial, kind)
			b := New(n)
			split := map[string]int{"AddEdge": len(edges.ends), "AddRuns": 0, "both": len(edges.ends) / 2}[kind]
			addOneByOne(t, b, []testRun{{edges.ends[:split], edges.w[:split]}})
			rest := testRun{edges.ends[split:], edges.w[split:]}
			third := len(rest.ends) / 3
			b.AddRuns(runsOf([]testRun{
				{rest.ends[:third], rest.w[:third]},
				{rest.ends[third:], rest.w[third:]},
			}))
			g := mustFreeze(b)
			checkLayout(t, what, g, nil)

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
// wide, so New refuses more than math.MaxInt32 nodes, and Freeze more than
// math.MaxInt32 arcs, each with a panic before anything that size is
// allocated. (Freeze is handed runs that share one edge list, which it never
// reads.)
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
	b := New(2)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	ends := make([][2]int32, 1<<16)
	runs := make([]Run, 1<<14) // 2³¹ arcs with the AddEdge edge's two
	for r := range runs {
		runs[r] = Run{Ends: ends}
	}
	runs[0].Ends = ends[1:]
	b.AddRuns(runs)
	mustPanic("Freeze", "2147483648 arcs exceed", func() { b.Freeze() })
}
