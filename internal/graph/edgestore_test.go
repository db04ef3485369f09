package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// refStore is the plain model the builder is checked against: the node
// count and the edges recorded, with the refusals of AddEdge and Freeze
// derived from their contracts alone.
type refStore struct {
	n int
	// adds holds the edges AddEdge took, runs the edges of the runs AddRuns
	// recorded, in run order.
	adds, runs []refEdge
}

// refEdge is one recorded edge.
type refEdge struct {
	u, v NodeID
	w    float64
}

func newRefStore(n int) *refStore { return &refStore{n: n} }

// endsText is the refusal of an edge (u, v) for its endpoints, or "".
func (r *refStore) endsText(u, v NodeID) string {
	known := func(x NodeID) bool { return x >= 0 && int(x) < r.n }
	switch {
	case !known(u) || !known(v):
		return fmt.Sprintf("add edge %d-%d: graph: unknown node", u, v)
	case u == v:
		return fmt.Sprintf("add edge: self-loop at node %d", u)
	}
	return ""
}

// weightText is the refusal of an edge (u, v) for its weight w, or "".
func weightText(u, v NodeID, w float64) string {
	if !(w > 0) || math.IsInf(w, 1) {
		return fmt.Sprintf("add edge %d-%d: weight %v must be positive and finite", u, v, w)
	}
	return ""
}

// add applies AddEdge(u, v, w) to the model and returns the error text the
// builder must give ("" for success).
func (r *refStore) add(u, v NodeID, w float64) string {
	if msg := cmp.Or(r.endsText(u, v), weightText(u, v, w)); msg != "" {
		return msg
	}
	r.adds = append(r.adds, refEdge{u, v, w})
	return ""
}

// freeze returns what Freeze must hand over: the edges by canonical pair,
// or the text of its first refusal. The runs are checked for their
// endpoints, then for their weights, each in run order; then every edge for
// a duplicate, the lowest in (A, B) order.
func (r *refStore) freeze() (map[EdgeID]float64, string) {
	for _, e := range r.runs {
		if msg := r.endsText(e.u, e.v); msg != "" {
			return nil, msg
		}
	}
	for _, e := range r.runs {
		if msg := weightText(e.u, e.v, e.w); msg != "" {
			return nil, msg
		}
	}
	out := map[EdgeID]float64{}
	var dups []EdgeID
	for _, e := range append(slices.Clone(r.adds), r.runs...) {
		id := MakeEdgeID(e.u, e.v)
		if _, dup := out[id]; dup {
			dups = append(dups, id)
		}
		out[id] = e.w
	}
	if len(dups) > 0 {
		d := slices.MinFunc(dups, edgeIDCompare)
		return nil, fmt.Sprintf("add edge %d-%d: already present", d.A, d.B)
	}
	return out, ""
}

// errText renders an error the way the model does.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkStore compares the reads of g's edge store with the model's edges:
// counts, the canonical edge list, every node's degree and every edge's
// weight both ways round; and on up to 256 nodes HasEdge/EdgeWeight for
// every ordered pair of IDs from two below zero to two past the last node.
func checkStore(t *testing.T, what string, g *Graph, n int, want map[EdgeID]float64) {
	t.Helper()
	if g.NumNodes() != n || g.NumEdges() != len(want) {
		t.Fatalf("%s: %d nodes / %d edges, want %d / %d", what, g.NumNodes(), g.NumEdges(), n, len(want))
	}
	ids := make([]EdgeID, 0, len(want))
	deg := make([]int, n)
	for id, w := range want {
		ids = append(ids, id)
		deg[id.A]++
		deg[id.B]++
		for _, q := range [][2]NodeID{{id.A, id.B}, {id.B, id.A}} {
			if got, ok := g.EdgeWeight(q[0], q[1]); !ok || got != w {
				t.Fatalf("%s: EdgeWeight(%d,%d) = (%v,%v), want (%v,true)", what, q[0], q[1], got, ok, w)
			}
		}
	}
	slices.SortFunc(ids, edgeIDCompare)
	if got := g.Edges(); !slices.Equal(got, ids) {
		t.Fatalf("%s: Edges() = %v, want %v", what, got, ids)
	}
	for u, d := range deg {
		if g.Degree(NodeID(u)) != d {
			t.Fatalf("%s: node %d has degree %d, want %d", what, u, g.Degree(NodeID(u)), d)
		}
	}
	if n > 256 {
		return
	}
	for u := NodeID(-2); u < NodeID(n+2); u++ {
		for v := NodeID(-2); v < NodeID(n+2); v++ {
			w, wantOK := want[MakeEdgeID(u, v)]
			if u == v {
				wantOK = false
			}
			got, ok := g.EdgeWeight(u, v)
			if ok != wantOK || (ok && got != w) {
				t.Fatalf("%s: EdgeWeight(%d,%d) = (%v,%v), want (%v,%v)", what, u, v, got, ok, w, wantOK)
			}
			if g.HasEdge(u, v) != wantOK {
				t.Fatalf("%s: HasEdge(%d,%d) = %v, want %v", what, u, v, !wantOK, wantOK)
			}
		}
	}
}

// checkFrozen freezes b and holds the result to the model's: the same
// refusal, or a graph whose every read matches the model's edges. Either
// way the builder is left empty. It returns the graph, nil on a refusal.
func checkFrozen(t *testing.T, what string, b *Builder, r *refStore) *Graph {
	t.Helper()
	g, err := b.Freeze()
	want, refusal := r.freeze()
	if got := errText(err); got != refusal {
		t.Fatalf("%s: Freeze refused %q, want %q", what, got, refusal)
	}
	if b.NumNodes() != 0 {
		t.Fatalf("%s: the builder holds %d nodes after Freeze", what, b.NumNodes())
	}
	if refusal == "" {
		checkStore(t, what+" (frozen)", g, r.n, want)
	} else if g != nil {
		t.Fatalf("%s: Freeze refused and handed over a graph", what)
	}
	return g
}

// TestEdgeStoreMatchesReference drives random build sequences against a
// plain model kept beside the builder: AddNode midway, duplicates in both
// orientations, self-loops, unknown and negative IDs, and zero, negative,
// NaN and infinite weights, comparing every AddEdge error, then Freeze's
// refusal of the duplicates. The same sequence without its duplicates then
// freezes to a graph whose every read matches the model. Two fixed shapes
// follow at the sizes where the row scan is longest: a complete K₂₀₀ and a
// 500-leaf star, both wired in shuffled order so no row is built sorted.
func TestEdgeStoreMatchesReference(t *testing.T) {
	weights := []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1, 0.5}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(2700 + trial)))
		n := 2 + rng.Intn(10)
		b, r := New(n), newRefStore(n)
		// distinct replays the calls whose edge is new.
		distinct, rd, seen := New(n), newRefStore(n), map[EdgeID]bool{}
		call := func(what string, u, v NodeID, w float64) {
			if got, want := errText(b.AddEdge(u, v, w)), r.add(u, v, w); got != want {
				t.Fatalf("%s: AddEdge(%d,%d,%v) = %q, want %q", what, u, v, w, got, want)
			}
			if id := MakeEdgeID(u, v); !seen[id] {
				seen[id] = rd.add(u, v, w) == ""
				distinct.AddEdge(u, v, w)
			}
		}
		for step := 0; step < 150; step++ {
			what := fmt.Sprintf("trial %d step %d", trial, step)
			pick := func() NodeID { return NodeID(rng.Intn(r.n+4) - 2) }
			switch op := rng.Intn(10); {
			case op == 0 && r.n < 40:
				p := Point{X: rng.Float64()}
				b.AddNode(p)
				distinct.AddNode(p)
				r.n++
				rd.n++
			case op <= 2 && len(r.adds) > 0:
				// A duplicate, in either orientation, with any weight.
				e := r.adds[rng.Intn(len(r.adds))]
				u, v := e.u, e.v
				if rng.Intn(2) == 0 {
					u, v = v, u
				}
				call(what, u, v, 0.1+rng.Float64())
			default:
				u, v := pick(), pick()
				if rng.Intn(8) == 0 {
					v = u
				}
				w := 0.1 + rng.Float64()
				if rng.Intn(4) == 0 {
					w = weights[rng.Intn(len(weights))]
				}
				call(what, u, v, w)
			}
		}
		checkFrozen(t, fmt.Sprintf("trial %d", trial), b, r)
		if checkFrozen(t, fmt.Sprintf("trial %d without duplicates", trial), distinct, rd) == nil {
			t.Fatalf("trial %d: the build without duplicates was refused", trial)
		}
	}

	rng := rand.New(rand.NewSource(27))
	wire := func(n int, pairs []EdgeID) (*Builder, *refStore) {
		b, r := New(n), newRefStore(n)
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for _, e := range pairs {
			u, v := e.A, e.B
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			w := 0.1 + rng.Float64()
			if got, want := errText(b.AddEdge(u, v, w)), r.add(u, v, w); got != want {
				t.Fatalf("AddEdge(%d,%d) = %q, want %q", u, v, got, want)
			}
		}
		return b, r
	}

	var complete []EdgeID
	for u := NodeID(0); u < 200; u++ {
		for v := u + 1; v < 200; v++ {
			complete = append(complete, EdgeID{A: u, B: v})
		}
	}
	k200, rk := wire(200, complete)
	checkFrozen(t, "K200", k200, rk)

	// The hub sits mid-range, so its row holds arcs to lower and higher IDs.
	const hub = 250
	var spokes []EdgeID
	for leaf := NodeID(0); leaf <= 500; leaf++ {
		if leaf != hub {
			spokes = append(spokes, MakeEdgeID(hub, leaf))
		}
	}
	star, rs := wire(501, spokes)
	frozen := checkFrozen(t, "star", star, rs)
	weightOf, _ := rs.freeze()

	// A lookup scans the shorter row. On a copy whose hub row carries
	// different weights, every hub–leaf lookup must still answer with the
	// leaf row's weight, in either argument order.
	probe := *frozen
	probe.w = slices.Clone(frozen.w)
	for i := probe.lo[hub]; i < probe.hi[hub]; i++ {
		probe.w[i] = -1
	}
	for leaf := NodeID(0); leaf <= 500; leaf++ {
		if leaf == hub {
			continue
		}
		want := weightOf[MakeEdgeID(hub, leaf)]
		for _, q := range [][2]NodeID{{hub, leaf}, {leaf, hub}} {
			if got, _ := probe.EdgeWeight(q[0], q[1]); got != want {
				t.Fatalf("EdgeWeight(%d,%d) = %v, want %v from the 1-arc row", q[0], q[1], got, want)
			}
		}
	}
}

// buildInput is a build sequence decoded from fuzz bytes: the node count and
// the AddEdge and AddRuns calls, in order.
type buildInput struct {
	n     int
	calls []buildCall
}

// buildCall is one AddEdge call (runs nil) or one AddRuns call.
type buildCall struct {
	edge refEdge
	runs [][]refEdge
}

// decodeBuild reads a build sequence from data: two bytes of node count (2
// to 513), then calls until the bytes run out. An AddEdge or a run's edge
// takes three bytes, endpoints from one below zero to one past the last node
// and a weight that is bad one time in eight. A dense run joins every pair
// of a window of up to 257 nodes, weights tied in threes: two of them make a
// build that Freeze fills and checks on several goroutines.
func decodeBuild(data []byte) buildInput {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	in := buildInput{n: 2 + (next()|next()<<8)%512}
	bad := []float64{0, -1, math.NaN(), math.Inf(1)}
	edge := func() refEdge {
		u, v, x := NodeID(next()%(in.n+2)-1), NodeID(next()%(in.n+2)-1), next()
		w := float64(1+x%5) / 4
		if x%8 == 7 {
			w = bad[x/8%len(bad)]
		}
		return refEdge{u, v, w}
	}
	for len(data) > 0 {
		switch op := next(); op % 4 {
		case 0, 1:
			in.calls = append(in.calls, buildCall{edge: edge()})
		case 2:
			runs := make([][]refEdge, 1+next()%3)
			for r := range runs {
				for k := next() % 8; k > 0; k-- {
					runs[r] = append(runs[r], edge())
				}
			}
			in.calls = append(in.calls, buildCall{runs: runs})
		case 3:
			lo := next() % in.n
			hi := min(in.n, lo+2+next()%in.n)
			var run []refEdge
			for u := lo; u < hi; u++ {
				for v := u + 1; v < hi; v++ {
					run = append(run, refEdge{NodeID(u), NodeID(v), float64(1 + (u+v)%3)})
				}
			}
			in.calls = append(in.calls, buildCall{runs: [][]refEdge{run}})
		}
	}
	return in
}

// replay makes the calls on a new builder, holding each AddEdge error to
// the model's, and returns the builder.
func (in buildInput) replay(t *testing.T, r *refStore) *Builder {
	b := New(in.n)
	for i, c := range in.calls {
		if c.runs == nil {
			e := c.edge
			if got, want := errText(b.AddEdge(e.u, e.v, e.w)), r.add(e.u, e.v, e.w); got != want {
				t.Fatalf("call %d: AddEdge(%d,%d,%v) = %q, want %q", i, e.u, e.v, e.w, got, want)
			}
			continue
		}
		runs := make([]Run, len(c.runs))
		for k, es := range c.runs {
			ends := make([][2]int32, len(es))
			for j, e := range es {
				ends[j] = [2]int32{int32(e.u), int32(e.v)}
			}
			runs[k] = Run{Ends: ends, Weight: func(j int) float64 { return es[j].w }}
			r.runs = append(r.runs, es...)
		}
		b.AddRuns(runs)
	}
	return b
}

// FuzzBuild holds the builder to the model on byte-decoded sequences of
// AddEdge and AddRuns calls: every AddEdge error, Freeze's first refusal,
// and the frozen graph's every read are the model's, at GOMAXPROCS 1 and 4,
// and the two graphs hold the same block.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{6, 0, 0, 1, 2, 1, 1, 3, 4, 2, 2, 1, 2, 2, 3, 3, 4, 5, 4, 1, 5, 6, 0, 0, 7, 8, 1}) // AddEdge, then two runs, then AddEdge
	f.Add([]byte{6, 0, 0, 1, 2, 1, 0, 2, 1, 9})                                                    // a duplicate, reversed
	f.Add([]byte{6, 0, 0, 0, 5, 1, 1, 4, 9, 1})                                                    // AddEdge refuses −1 and a node past the last
	f.Add([]byte{6, 0, 2, 0, 2, 1, 2, 7, 3, 3, 1})                                                 // a bad weight, then a self-loop, in a run
	f.Add([]byte{6, 0, 0, 1, 2, 1, 2, 1, 1, 2, 1, 1, 1, 4, 5, 15})                                 // a duplicate, then a bad weight, in runs
	f.Add([]byte{6, 0, 3, 1, 4, 0, 2, 0, 2, 3, 2, 0, 2, 3, 0})                                     // a dense run, then a run repeating its edge
	f.Add([]byte{142, 1, 3, 0, 198, 3, 200, 198})                                                  // two dense runs of 19 900 edges
	f.Add([]byte{142, 1, 3, 0, 198, 3, 190, 198})                                                  // the same, ten nodes shared
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeBuild(data)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		var first *Graph
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			r := newRefStore(in.n)
			g := checkFrozen(t, fmt.Sprintf("GOMAXPROCS %d", procs), in.replay(t, r), r)
			if first == nil {
				first = g
			} else if g != nil && (!slices.Equal(g.lo, first.lo) || !slices.Equal(g.to, first.to) || !slices.Equal(g.w, first.w)) {
				t.Fatal("the rows frozen at GOMAXPROCS 4 differ from 1")
			}
		}
	})
}
