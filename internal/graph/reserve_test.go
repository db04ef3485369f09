package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// addOp is one AddEdge call of a replayed build sequence.
type addOp struct {
	u, v NodeID
	w    float64
}

// randomAdds draws a build sequence on n nodes that mixes good edges with
// every refusal AddEdge knows: unknown and negative IDs, self-loops, zero,
// negative, NaN and infinite weights, and duplicates in either orientation.
func randomAdds(rng *rand.Rand, n int) []addOp {
	weights := []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
	ops := make([]addOp, 20+rng.Intn(200))
	for i := range ops {
		op := addOp{u: NodeID(rng.Intn(n+3) - 1), v: NodeID(rng.Intn(n+3) - 1), w: 0.1 + rng.Float64()}
		switch rng.Intn(10) {
		case 0:
			op.v = op.u
		case 1:
			op.w = weights[rng.Intn(len(weights))]
		case 2, 3:
			if i > 0 {
				prev := ops[rng.Intn(i)]
				op.u, op.v = prev.v, prev.u
			}
		}
		ops[i] = op
	}
	return ops
}

// apply runs ops on g and returns each call's error text.
func apply(g *Graph, ops []addOp) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = errText(g.AddEdge(op.u, op.v, op.w))
	}
	return out
}

// TestReserveMatchesAddEdge: rows reserved before a build, at their exact
// final size, short of it or with room to spare, and reserved midway, keep
// the arcs already there and end holding what AddEdge alone builds, in the
// same order, with every refusal worded the same. Exact counts leave no
// slack in any row.
func TestReserveMatchesAddEdge(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(3900 + trial)))
		n := 2 + rng.Intn(25)
		ops := randomAdds(rng, n)
		plain := New(n)
		wantErrs := apply(plain, ops)
		half := New(n)
		apply(half, ops[:len(ops)/2])

		for _, mode := range []string{"exact", "short", "spare", "midway"} {
			what := fmt.Sprintf("trial %d, %s", trial, mode)
			g, done := New(n), 0
			extra := make([]int32, n)
			for u := range extra {
				extra[u] = int32(plain.Degree(NodeID(u)))
				switch mode {
				case "short":
					extra[u] /= 2
				case "spare":
					extra[u] += int32(rng.Intn(3))
				case "midway":
					extra[u] -= int32(half.Degree(NodeID(u)))
				}
			}
			if mode == "midway" {
				done = len(ops) / 2
				apply(g, ops[:done])
			}
			g.Reserve(extra)
			for u := 0; u < n && mode == "midway"; u++ {
				if !slices.Equal(g.adj[u], half.adj[u]) {
					t.Fatalf("%s: Reserve changed row %d", what, u)
				}
			}
			if got := apply(g, ops[done:]); !slices.Equal(got, wantErrs[done:]) {
				t.Fatalf("%s: errors %q, want %q", what, got, wantErrs[done:])
			}
			if g.NumEdges() != plain.NumEdges() {
				t.Fatalf("%s: %d edges, want %d", what, g.NumEdges(), plain.NumEdges())
			}
			for u := 0; u < n; u++ {
				row := g.adj[u]
				if !slices.Equal(row, plain.adj[u]) {
					t.Fatalf("%s: row %d is %v, want %v", what, u, row, plain.adj[u])
				}
				if (mode == "exact" || mode == "midway") && len(row) != cap(row) {
					t.Fatalf("%s: row %d has %d arcs in room for %d", what, u, len(row), cap(row))
				}
			}
		}
	}
}

// TestReserveRefusals: Reserve panics with ErrFrozen on a frozen graph and
// refuses a count list that does not match the nodes.
func TestReserveRefusals(t *testing.T) {
	recovered := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	g := line(t, 4)
	if r := recovered(func() { g.Reserve(make([]int32, 3)) }); r == nil {
		t.Error("Reserve with 3 counts on 4 nodes did not panic")
	}
	g.Freeze()
	if r := recovered(func() { g.Reserve(make([]int32, 4)) }); r == nil || !errors.Is(r.(error), ErrFrozen) {
		t.Errorf("Reserve on a frozen graph: panic %v, want ErrFrozen", r)
	}
	if err := g.AddEdge(0, 3, 1); !errors.Is(err, ErrFrozen) {
		t.Errorf("AddEdge on a frozen graph: %v, want ErrFrozen", err)
	}
}

// TestFreezeInPlace: Freeze sorts rows that have no slack where they lie,
// keeping their backing arrays, and re-packs rows grown by append onto one
// new block, as it always has; either way every row ends in frozen order
// holding the arcs it was built with. A graph large enough to sort on
// several goroutines freezes to the same rows as on one.
func TestFreezeInPlace(t *testing.T) {
	build := func(reserve bool) (*Graph, insertionLog) {
		g, log := waxmanDomain(rand.New(rand.NewSource(7)), 300, 0.9, 0.6)
		if !reserve {
			return g, log
		}
		r, extra := New(g.NumNodes()), make([]int32, g.NumNodes())
		for u := range extra {
			extra[u] = int32(len(log[u]))
		}
		r.Reserve(extra)
		for u := range log {
			for _, a := range log[u] {
				if NodeID(u) < a.To {
					if err := r.AddEdge(NodeID(u), a.To, a.Weight); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return r, nil
	}
	grown, log := build(false)
	exact, _ := build(true)
	first := func(g *Graph) []*Arc {
		out := make([]*Arc, g.NumNodes())
		for u, row := range g.adj {
			if len(row) > 0 {
				out[u] = &row[0]
			}
		}
		return out
	}
	if !slices.ContainsFunc(grown.adj, func(row []Arc) bool { return len(row) < cap(row) }) {
		t.Fatal("no row grown by append has slack; the repack branch goes untested")
	}
	beforeGrown, beforeExact := first(grown), first(exact)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if 2*exact.NumEdges() < 2*sortArcsPerWorker {
		t.Fatalf("%d arcs sort on one goroutine; the parallel branch goes untested", 2*exact.NumEdges())
	}
	grown.Freeze()
	exact.Freeze()
	checkRowOrder(t, grown, log)
	checkRowOrder(t, exact, log)
	afterGrown, afterExact := first(grown), first(exact)
	for u := range afterExact {
		if afterExact[u] != beforeExact[u] {
			t.Fatalf("row %d without slack moved", u)
		}
		if afterGrown[u] == beforeGrown[u] || len(grown.adj[u]) != cap(grown.adj[u]) {
			t.Fatalf("grown row %d was not re-packed", u)
		}
		if !slices.Equal(exact.adj[u], grown.adj[u]) {
			t.Fatalf("row %d differs between the two builds", u)
		}
	}

	runtime.GOMAXPROCS(1)
	one, _ := build(true)
	one.Freeze()
	for u := range one.adj {
		if !slices.Equal(one.adj[u], exact.adj[u]) {
			t.Fatalf("row %d frozen on one goroutine differs from four", u)
		}
	}
}
