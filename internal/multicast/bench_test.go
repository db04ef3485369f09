package multicast

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"smrp/internal/graph"
)

// benchChurnFixture builds a deterministic random connected graph, grows a
// tree with k members on it, and returns a leaf member plus the path that
// regrafts it after a Leave — the steady-state churn cycle the benchmarks
// and the allocation guard below all share.
func benchChurnFixture(tb testing.TB, n, extraEdges, k int, sparse bool) (*Tree, graph.NodeID, graph.Path) {
	tb.Helper()
	rng := rand.New(rand.NewSource(2005))
	b := graph.New(n)
	linked := map[graph.EdgeID]bool{}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)])
		linked[graph.MakeEdgeID(u, v)] = true
		if err := b.AddEdge(u, v, 1+rng.Float64()); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < extraEdges; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if e := graph.MakeEdgeID(u, v); u != v && !linked[e] {
			linked[e] = true
			if err := b.AddEdge(u, v, 1+rng.Float64()); err != nil {
				tb.Fatal(err)
			}
		}
	}
	g := b.Freeze()
	newFn := New
	if sparse {
		newFn = NewSparse
	}
	tr, err := newFn(g, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for joined := 0; joined < k; {
		m := graph.NodeID(rng.Intn(n))
		if tr.IsMember(m) {
			continue
		}
		if tr.OnTree(m) {
			if err := tr.Graft(graph.Path{m}, true); err != nil {
				tb.Fatal(err)
			}
		} else {
			_, p, _ := g.NearestOf(m, nil, tr.OnTree)
			if p == nil {
				continue
			}
			if err := tr.Graft(p.Reverse(), true); err != nil {
				tb.Fatal(err)
			}
		}
		joined++
	}
	// Pick a deterministic leaf member and derive its churn cycle: leave,
	// then regraft along the residual shortest path back to the tree.
	var leaf graph.NodeID = graph.Invalid
	for _, m := range tr.Members() {
		if len(tr.Children(m)) == 0 && m != tr.Source() {
			leaf = m
			break
		}
	}
	if leaf == graph.Invalid {
		tb.Fatal("no leaf member in bench fixture")
	}
	if err := tr.Leave(leaf); err != nil {
		tb.Fatal(err)
	}
	_, p, _ := g.NearestOf(leaf, nil, tr.OnTree)
	if p == nil {
		tb.Fatal("leaf cannot regraft")
	}
	regraft := p.Reverse()
	if err := tr.Graft(regraft, true); err != nil {
		tb.Fatal(err)
	}
	return tr, leaf, regraft
}

// BenchmarkTreeGraftLeave measures one warm membership churn cycle — a leaf
// member leaves (pruning its relay chain) and regrafts along the same path —
// the tree-state half of the per-event join/leave hot path.
func BenchmarkTreeGraftLeave(b *testing.B) {
	tr, leaf, regraft := benchChurnFixture(b, 200, 200, 40, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Leave(leaf); err != nil {
			b.Fatal(err)
		}
		if err := tr.Graft(regraft, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeChurnBackends is the sparse-vs-dense churn comparison at
// megascale (N = 10⁵): the same warm leave/regraft cycle on both storage
// backends over an identical topology. The sparse backend pays index probes
// along the O(depth) walks; the payoff is the standing-bytes column reported
// by each sub-benchmark (dense O(N) arrays vs O(|tree|) slots).
func BenchmarkTreeChurnBackends(b *testing.B) {
	const n, extra, k = 100_000, 100_000, 64
	for _, mode := range []struct {
		name   string
		sparse bool
	}{{"dense", false}, {"sparse", true}} {
		b.Run(mode.name, func(b *testing.B) {
			tr, leaf, regraft := benchChurnFixture(b, n, extra, k, mode.sparse)
			b.ReportAllocs()
			b.ReportMetric(float64(tr.MemoryFootprint()), "standing-B")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.Leave(leaf); err != nil {
					b.Fatal(err)
				}
				if err := tr.Graft(regraft, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTreeSteadyStateAllocs pins the warm join/leave cycle at zero heap
// allocations, mirroring TestSweepSteadyStateAllocs: once the tree's backing
// arrays have grown to steady state, membership churn must not allocate. GC
// is disabled so a collection cannot shrink pooled storage mid-measurement.
func TestTreeSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	for _, mode := range []struct {
		name   string
		sparse bool
	}{{"dense", false}, {"sparse", true}} {
		t.Run(mode.name, func(t *testing.T) {
			tr, leaf, regraft := benchChurnFixture(t, 200, 200, 40, mode.sparse)
			// Warm: one full cycle outside the measurement.
			if err := tr.Leave(leaf); err != nil {
				t.Fatal(err)
			}
			if err := tr.Graft(regraft, true); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if err := tr.Leave(leaf); err != nil {
					t.Fatal(err)
				}
				if err := tr.Graft(regraft, true); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state graft/leave allocated %.1f times per cycle, want 0", allocs)
			}
		})
	}
}
