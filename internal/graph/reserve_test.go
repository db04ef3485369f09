package graph

import (
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

// apply runs ops on b and returns each call's error text.
func apply(b *Builder, ops []addOp) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = errText(b.AddEdge(op.u, op.v, op.w))
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
				extra[u] = int32(plain.g.Degree(NodeID(u)))
				switch mode {
				case "short":
					extra[u] /= 2
				case "spare":
					extra[u] += int32(rng.Intn(3))
				case "midway":
					extra[u] -= int32(half.g.Degree(NodeID(u)))
				}
			}
			if mode == "midway" {
				done = len(ops) / 2
				apply(g, ops[:done])
			}
			g.Reserve(extra)
			for u := 0; u < n && mode == "midway"; u++ {
				if !slices.Equal(g.g.Neighbors(NodeID(u)), half.g.Neighbors(NodeID(u))) {
					t.Fatalf("%s: Reserve changed row %d", what, u)
				}
			}
			if got := apply(g, ops[done:]); !slices.Equal(got, wantErrs[done:]) {
				t.Fatalf("%s: errors %q, want %q", what, got, wantErrs[done:])
			}
			if g.g.NumEdges() != plain.g.NumEdges() {
				t.Fatalf("%s: %d edges, want %d", what, g.g.NumEdges(), plain.g.NumEdges())
			}
			for u := 0; u < n; u++ {
				row, want := g.g.Neighbors(NodeID(u)), plain.g.Neighbors(NodeID(u))
				if !slices.Equal(row, want) {
					t.Fatalf("%s: row %d is %v, want %v", what, u, row, want)
				}
				if (mode == "exact" || mode == "midway") && g.g.hi[u] != g.end[u] {
					t.Fatalf("%s: row %d ends at %d in room up to %d", what, u, g.g.hi[u], g.end[u])
				}
			}
		}
	}
}

// TestReserveRefusals: Reserve refuses a count list that does not match the
// nodes.
func TestReserveRefusals(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Reserve with 3 counts on 4 nodes did not panic")
		}
	}()
	New(4).Reserve(make([]int32, 3))
}

// TestFreezeInPlace: a build whose rows fill the block Reserve carved
// freezes on that very block: the graph's far ends and weights are the
// reserved arrays, each row sorted where it lies, and the builder is left
// empty. A build grown by AddEdge alone (rows moved to the builder's own
// block, room to spare) is packed once into a block of exactly its arcs.
// Every row ends in frozen order holding the arcs it was built with, the two
// builds alike. A graph large enough to sort on several goroutines freezes
// to the same rows as on one.
func TestFreezeInPlace(t *testing.T) {
	build := func(reserve bool) (*Builder, insertionLog) {
		b, log := waxmanBuild(rand.New(rand.NewSource(7)), 300, 0.9, 0.6)
		if !reserve {
			return b, log
		}
		r, extra := New(b.NumNodes()), make([]int32, b.NumNodes())
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
	grownB, log := build(false)
	exactB, _ := build(true)
	if len(grownB.g.ownTo) <= 2*grownB.g.edges {
		t.Fatalf("the grown build holds %d own arcs for %d: no room to spare", len(grownB.g.ownTo), 2*grownB.g.edges)
	}
	reservedTo, reservedW := &exactB.g.to[0], &exactB.g.w[0]

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if 2*exactB.g.NumEdges() < 2*sortArcsPerWorker {
		t.Fatalf("%d arcs sort on one goroutine; the parallel branch goes untested", 2*exactB.g.NumEdges())
	}
	grown, exact := grownB.Freeze(), exactB.Freeze()
	if grownB.NumNodes() != 0 || exactB.NumNodes() != 0 {
		t.Fatal("a builder holds nodes after Freeze")
	}
	checkRowOrder(t, grown, log)
	checkRowOrder(t, exact, log)
	if &exact.to[0] != reservedTo || &exact.w[0] != reservedW {
		t.Fatal("Freeze copied the reserved block")
	}
	for _, g := range []*Graph{grown, exact} {
		if len(g.to) != 2*g.edges || cap(g.to) != len(g.to) || cap(g.w) != len(g.w) || g.ownTo != nil {
			t.Fatalf("frozen block of %d arcs (room for %d, own %d) for %d edges", len(g.to), cap(g.to), len(g.ownTo), g.edges)
		}
	}
	if !slices.Equal(exact.lo, grown.lo) || !slices.Equal(exact.to, grown.to) || !slices.Equal(exact.w, grown.w) {
		t.Fatal("the two builds froze to different blocks")
	}

	runtime.GOMAXPROCS(1)
	oneB, _ := build(true)
	one := oneB.Freeze()
	if !slices.Equal(one.lo, exact.lo) || !slices.Equal(one.to, exact.to) || !slices.Equal(one.w, exact.w) {
		t.Fatal("rows frozen on one goroutine differ from four")
	}
}
