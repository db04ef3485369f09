package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refStore is the plain model the edge store is checked against: the node
// count and a map from canonical pair to weight, with AddEdge's refusals
// derived from its contract alone.
type refStore struct {
	n int
	w map[EdgeID]float64
}

func newRefStore(n int) *refStore { return &refStore{n: n, w: map[EdgeID]float64{}} }

// add applies AddEdge(u, v, w) to the model and returns the error text the
// graph must give ("" for success).
func (r *refStore) add(u, v NodeID, w float64) string {
	known := func(x NodeID) bool { return x >= 0 && int(x) < r.n }
	switch {
	case !known(u) || !known(v):
		return fmt.Sprintf("add edge %d-%d: graph: unknown node", u, v)
	case u == v:
		return fmt.Sprintf("add edge: self-loop at node %d", u)
	case !(w > 0) || math.IsInf(w, 1):
		return fmt.Sprintf("add edge %d-%d: weight %v must be positive and finite", u, v, w)
	}
	id := MakeEdgeID(u, v)
	if _, dup := r.w[id]; dup {
		return fmt.Sprintf("add edge %d-%d: already present", u, v)
	}
	r.w[id] = w
	return ""
}

// edges lists the model's edges in canonical (A, B) order.
func (r *refStore) edges() []EdgeID {
	out := make([]EdgeID, 0, len(r.w))
	for id := range r.w {
		out = append(out, id)
	}
	slices.SortFunc(out, func(a, b EdgeID) int {
		return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B))
	})
	return out
}

// errText renders an error the way refStore.add does.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkStore compares every read of g's edge store with the model: counts,
// the canonical edge list, and HasEdge/EdgeWeight for every ordered pair of
// IDs from two below zero to two past the last node.
func checkStore(t *testing.T, what string, g *Graph, r *refStore) {
	t.Helper()
	if g.NumNodes() != r.n || g.NumEdges() != len(r.w) {
		t.Fatalf("%s: %d nodes / %d edges, want %d / %d", what, g.NumNodes(), g.NumEdges(), r.n, len(r.w))
	}
	if got, want := g.Edges(), r.edges(); !slices.Equal(got, want) {
		t.Fatalf("%s: Edges() = %v, want %v", what, got, want)
	}
	for u := NodeID(-2); u < NodeID(r.n+2); u++ {
		for v := NodeID(-2); v < NodeID(r.n+2); v++ {
			want, wantOK := r.w[MakeEdgeID(u, v)]
			if u == v {
				wantOK = false
			}
			got, ok := g.EdgeWeight(u, v)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("%s: EdgeWeight(%d,%d) = (%v,%v), want (%v,%v)", what, u, v, got, ok, want, wantOK)
			}
			if g.HasEdge(u, v) != wantOK {
				t.Fatalf("%s: HasEdge(%d,%d) = %v, want %v", what, u, v, !wantOK, wantOK)
			}
		}
	}
}

// checkFrozenAndClones repeats checkStore on an unfrozen clone, on g frozen,
// and on a clone of the frozen g, and checks that a frozen graph refuses an
// edge with ErrFrozen.
func checkFrozenAndClones(t *testing.T, what string, g *Graph, r *refStore) {
	t.Helper()
	checkStore(t, what+" (clone)", g.Clone(), r)
	g.Freeze()
	checkStore(t, what+" (frozen)", g, r)
	checkStore(t, what+" (frozen clone)", g.Clone(), r)
	want := fmt.Sprintf("add edge 0-1: %v", ErrFrozen)
	if got := errText(g.AddEdge(0, 1, 1)); got != want {
		t.Fatalf("%s: AddEdge on a frozen graph = %q, want %q", what, got, want)
	}
}

// TestEdgeStoreMatchesReference drives random build sequences against a plain
// map kept beside the graph: AddNode midway, duplicates in both
// orientations, self-loops, unknown and negative IDs, and zero, negative,
// NaN and infinite weights, comparing every read and every error after each
// step, then after Freeze and on both kinds of Clone. Two fixed shapes follow
// at the sizes where the row scan is longest: a complete K₂₀₀ and a 500-leaf
// star, both wired in shuffled order so no row is built sorted.
func TestEdgeStoreMatchesReference(t *testing.T) {
	weights := []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1, 0.5}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(2700 + trial)))
		n := 2 + rng.Intn(10)
		g, r := New(n), newRefStore(n)
		checkStore(t, "empty", g, r)
		for step := 0; step < 150; step++ {
			what := fmt.Sprintf("trial %d step %d", trial, step)
			pick := func() NodeID { return NodeID(rng.Intn(r.n+4) - 2) }
			switch op := rng.Intn(10); {
			case op == 0 && r.n < 40:
				g.AddNode(Point{X: rng.Float64()})
				r.n++
			case op <= 2 && len(r.w) > 0:
				// A duplicate, in either orientation, with any weight.
				es := r.edges()
				e := es[rng.Intn(len(es))]
				u, v := e.A, e.B
				if rng.Intn(2) == 0 {
					u, v = v, u
				}
				w := 0.1 + rng.Float64()
				if got, want := errText(g.AddEdge(u, v, w)), r.add(u, v, w); got != want {
					t.Fatalf("%s: AddEdge(%d,%d) = %q, want %q", what, u, v, got, want)
				}
			default:
				u, v := pick(), pick()
				if rng.Intn(8) == 0 {
					v = u
				}
				w := 0.1 + rng.Float64()
				if rng.Intn(4) == 0 {
					w = weights[rng.Intn(len(weights))]
				}
				if got, want := errText(g.AddEdge(u, v, w)), r.add(u, v, w); got != want {
					t.Fatalf("%s: AddEdge(%d,%d,%v) = %q, want %q", what, u, v, w, got, want)
				}
			}
			checkStore(t, what, g, r)
		}
		checkFrozenAndClones(t, fmt.Sprintf("trial %d", trial), g, r)
	}

	rng := rand.New(rand.NewSource(27))
	wire := func(n int, pairs []EdgeID) (*Graph, *refStore) {
		g, r := New(n), newRefStore(n)
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for _, e := range pairs {
			u, v := e.A, e.B
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			w := 0.1 + rng.Float64()
			if got, want := errText(g.AddEdge(u, v, w)), r.add(u, v, w); got != want {
				t.Fatalf("AddEdge(%d,%d) = %q, want %q", u, v, got, want)
			}
		}
		return g, r
	}

	var complete []EdgeID
	for u := NodeID(0); u < 200; u++ {
		for v := u + 1; v < 200; v++ {
			complete = append(complete, EdgeID{A: u, B: v})
		}
	}
	k200, rk := wire(200, complete)
	checkStore(t, "K200", k200, rk)
	checkFrozenAndClones(t, "K200", k200, rk)

	// The hub sits mid-range, so its row holds arcs to lower and higher IDs.
	const hub = 250
	var spokes []EdgeID
	for leaf := NodeID(0); leaf <= 500; leaf++ {
		if leaf != hub {
			spokes = append(spokes, MakeEdgeID(hub, leaf))
		}
	}
	star, rs := wire(501, spokes)
	checkStore(t, "star", star, rs)

	// A lookup scans the shorter row. On a copy whose hub row carries
	// different weights, every hub–leaf lookup must still answer with the
	// leaf row's weight, in either argument order.
	probe := star.Clone()
	for i := range probe.adj[hub] {
		probe.adj[hub][i].Weight = -1
	}
	for leaf := NodeID(0); leaf <= 500; leaf++ {
		if leaf == hub {
			continue
		}
		want := rs.w[MakeEdgeID(hub, leaf)]
		for _, q := range [][2]NodeID{{hub, leaf}, {leaf, hub}} {
			if got, _ := probe.EdgeWeight(q[0], q[1]); got != want {
				t.Fatalf("EdgeWeight(%d,%d) = %v, want %v from the 1-arc row", q[0], q[1], got, want)
			}
		}
	}
	checkFrozenAndClones(t, "star", star, rs)
}
